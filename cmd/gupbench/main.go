// Command gupbench runs the declarative scenarios of internal/scenario —
// the system-level half of the testbed-and-benchmark suite the paper's
// conclusion calls for (E16, E17, E19–E23 in EXPERIMENTS.md; the
// component-level half, E1–E14 and E18, is `go test -bench . .`).
//
// Usage:
//
//	gupbench scenario <name|file.yaml> [-fast] [-seed N] [-json out.json] [-check baseline.json] [-v]
//	gupbench scenario -list
//
// A scenario is a committed name like e20_mixed or a .yaml file path.
// The run builds the declared rigs (real client, MDM and data stores over
// TCP behind fault-injection proxies), drives the phased workload mix,
// prints the per-phase table, evaluates the file's assertions and exits
// non-zero when any fail. -fast shrinks the run for smoke testing
// (assertions become informational); -check additionally gates against a
// committed baseline report (same scenario, phase coverage, assertion
// count). A breach is confirmed by a second run before failing.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"gupster/internal/scenario"
)

func main() {
	if len(os.Args) < 2 || os.Args[1] != "scenario" {
		fmt.Fprintln(os.Stderr, "usage: gupbench scenario <name|file.yaml> [-fast] [-seed N] [-json out.json] [-check baseline.json] [-v]\n       gupbench scenario -list")
		os.Exit(2)
	}
	args := os.Args[2:]

	fs := flag.NewFlagSet("scenario", flag.ExitOnError)
	fast := fs.Bool("fast", false, "shrink the run for smoke testing (assertions become informational)")
	seed := fs.Int64("seed", -1, "override the scenario's RNG seed (-1 = use the file's)")
	jsonOut := fs.String("json", "", "write the machine-readable report here")
	check := fs.String("check", "", "gate against this committed baseline report")
	list := fs.Bool("list", false, "list the committed scenarios and exit")
	verbose := fs.Bool("v", false, "narrate phases to stderr")
	// Accept "scenario <name> -flags" as well as "scenario -flags <name>".
	var target string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		target, args = args[0], args[1:]
	}
	_ = fs.Parse(args)

	if *list {
		for _, name := range scenario.List() {
			sc, err := scenario.Load(name)
			if err != nil {
				log.Fatalf("gupbench: scenario: %s: %v", name, err)
			}
			fmt.Printf("%-16s %s\n", name, sc.Description)
		}
		return
	}
	if target == "" && fs.NArg() == 1 {
		target = fs.Arg(0)
	}
	if target == "" {
		log.Fatalf("gupbench: scenario: want exactly one scenario name or file (try -list)")
	}
	var sc *scenario.Scenario
	if data, err := os.ReadFile(target); err == nil {
		sc, err = scenario.Decode(data)
		if err != nil {
			log.Fatalf("gupbench: scenario: %s: %v", target, err)
		}
	} else {
		var lerr error
		sc, lerr = scenario.Load(target)
		if lerr != nil {
			log.Fatalf("gupbench: scenario: %v", lerr)
		}
	}
	var baseline *scenario.Report
	if *check != "" {
		var err error
		if baseline, err = scenario.ReadReport(*check); err != nil {
			log.Fatalf("gupbench: scenario: baseline %s: %v", *check, err)
		}
	}

	opts := scenario.RunOptions{Fast: *fast}
	if *seed >= 0 {
		opts.Seed = seed
	}
	if *verbose {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "scenario: "+format+"\n", args...)
		}
	}
	// run executes the scenario once, prints and saves its report.
	run := func() *scenario.Report {
		rep, err := scenario.Run(sc, opts)
		if err != nil {
			log.Fatalf("gupbench: scenario %s: %v", sc.Name, err)
		}
		fmt.Println(rep.Table().String())
		for _, a := range rep.Assertions {
			mark := "ok  "
			if !a.Pass {
				mark = "FAIL"
			}
			fmt.Printf("  %s %s(%s): %s\n", mark, a.Kind, a.Target, a.Detail)
		}
		if *jsonOut != "" {
			if err := scenario.WriteReport(rep, *jsonOut); err != nil {
				log.Fatalf("gupbench: scenario: write %s: %v", *jsonOut, err)
			}
		}
		return rep
	}
	rep := run()
	if *fast {
		// A smoke run proves the scenario builds, drives and tears down;
		// the shrunken load makes ratio assertions meaningless.
		return
	}
	if err := scenario.CheckRegression(baseline, rep); err != nil {
		// Within-run ratios are scheduler-sensitive; a true regression
		// fails the confirmation run too.
		fmt.Printf("scenario gate: %v — confirming with a second run\n", err)
		rep = run()
		if err := scenario.CheckRegression(baseline, rep); err != nil {
			log.Fatalf("gupbench: %v", err)
		}
	}
	fmt.Printf("scenario gate: ok (%d assertions hold)\n", len(rep.Assertions))
}
