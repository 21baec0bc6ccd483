// Command benchmark is the repository's benchmark: loopback end-to-end and
// per-layer numbers for the resolve and directory-write paths. See
// README.md in this directory.
//
// The driver's contract is one workload per process:
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// which prints a human-readable report and, as the last line of standard
// output, one JSON object {correct, attempted, failed, metrics}. Without
// --workload (or with "all") it re-executes itself once per workload and
// round, interleaved, and tabulates the medians.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// metricDecl declares one metric exactly as BENCHMARK.json lists it.
type metricDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEndMetrics are what a caller of the system sees, the same on every
// workload, all at reference speed (reference.go). fail_ratio is not among
// them because a metric must never read 0: failures travel as
// attempted/failed/correct in the result line (and as client.fail_ratio in
// the per-layer pass). Nor is p95_us: a tail does not repeat on a shared
// host, scaled or not, so it is the per-layer client.p95_us.
var endToEndMetrics = []metricDecl{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"p50_us", "us", "lower"},
	{"cpu_us_per_op", "us/op", "lower"},
}

// layerFunctions are the timed layer functions, in the order timeLayers
// runs them.
var layerFunctions = []string{
	"xpath.parse", "xpath.contains", "xpath.intersect", "xpath.extract",
	"coverage.lookup", "coverage.register",
	"policy.decide",
	"token.sign", "token.verify",
	"xmltree.parse.1k", "xmltree.parse.8k", "xmltree.serialize.8k", "xmltree.deep_union.1k", "xmltree.deep_union.8k",
	"wire.write_frame.small", "wire.read_frame.small", "wire.write_frame.large", "wire.read_frame.large", "wire.roundtrip",
	"journal.append.fsync", "journal.append.nosync", "journal.append_batch8.fsync",
	"core.mdm_resolve.referral", "core.mdm_resolve.chain_hit", "core.mdm_register",
	"store.engine_get", "store.engine_put",
	"overload.acquire_release", "flight.do",
}

// perLayerMetrics lists every per-layer metric: timings, boundary counts,
// spans and budget.
func perLayerMetrics() []metricDecl {
	var out []metricDecl
	for _, fn := range layerFunctions {
		out = append(out, metricDecl{fn + ".ns_op", "ns/op", "lower"}, metricDecl{fn + ".allocs_op", "allocs/op", "lower"})
	}
	out = append(out,
		metricDecl{"core.cache.hit_ratio", "ratio", "higher"},
		metricDecl{"core.shield_evals_per_op", "1/op", "lower"},
		metricDecl{"core.bytes_proxied_per_op", "B/op", "lower"},
		metricDecl{"flight.coalesce_hit_ratio", "ratio", "higher"},
		metricDecl{"flight.fanout_calls_per_op", "1/op", "lower"},
		metricDecl{"journal.syncs_per_append", "ratio", "lower"},
		metricDecl{"journal.compactions", "count", "lower"},
		metricDecl{"overload.queued_ratio", "ratio", "lower"},
		metricDecl{"overload.shed_ratio", "ratio", "lower"},
		metricDecl{"resilience.retries_per_op", "1/op", "lower"},
		metricDecl{"process.allocs_per_op", "allocs/op", "lower"},
		metricDecl{"process.bytes_per_op", "B/op", "lower"},
		metricDecl{"process.gc_pause_ms", "ms", "lower"},
		metricDecl{"process.heap_inuse_mb", "MiB", "lower"},
		metricDecl{"client.p95_us", "us", "lower"},
		metricDecl{"client.p99_us", "us", "lower"},
		metricDecl{"client.read.p50_us", "us", "lower"},
		metricDecl{"client.write.p50_us", "us", "lower"},
		metricDecl{"client.write.p95_us", "us", "lower"},
		metricDecl{"client.fail_ratio", "ratio", "lower"},
	)
	for _, name := range spanNames {
		out = append(out, metricDecl{"span." + name + ".self_p50_us", "us", "lower"}, metricDecl{"span." + name + ".per_op", "1/op", "lower"})
	}
	for _, layer := range budgetLayers {
		out = append(out, metricDecl{"budget." + layer + ".us_per_op", "us/op", "lower"})
	}
	return append(out,
		metricDecl{"budget.explained_ratio", "ratio", "higher"},
		metricDecl{"trace.overhead_ratio", "ratio", "higher"},
		metricDecl{"machine.speed_ratio", "ratio", "higher"},
	)
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the metrics by name with their units and then the result
// line. Every declared metric of the pass must have been measured.
func report(w io.Writer, res *runResult, decls []metricDecl) error {
	line := resultLine{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: make(map[string]metricValue, len(decls))}
	for _, d := range decls {
		v, ok := res.metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was declared but not measured", d.Name)
		}
		fmt.Fprintf(w, "  %-36s %16.4f %s\n", d.Name, v, d.Unit)
		line.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	fmt.Fprintf(w, "  %-36s %16.6f ratio (%d failed of %d attempted)\n", "fail_ratio", float64(res.failed)/float64(max(1, res.attempted)), res.failed, res.attempted)
	for _, e := range res.errs {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// clientCount is the closed loop's size and GOMAXPROCS: min(nproc, 4).
func clientCount() int { return min(runtime.NumCPU(), 4) }

func printEnv(w io.Writer, seed int64, clients int) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "env: commit=%s go=%s nproc=%d GOMAXPROCS=%d clients=%d seed=%d transport=loopback-tcp\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), clients, seed)
}

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run in this process, or \"all\" to run every workload in child processes")
		seed         = flag.Int64("seed", 1, "seed for population, op schedule and key choice")
		seconds      = flag.Float64("seconds", 22, "measured seconds per run")
		trace        = flag.Int("trace", 0, "1 = per-layer pass (boundary counts, traced wave, layer timings, budget) instead of the end-to-end pass")
		layers       = flag.Bool("layers", false, "same as -trace 1: layer timings and the latency budget table")
		repeat       = flag.Int("repeat", 1, "all: run the full set this many times and compare the sets against the bounds in BENCHMARK.json")
		save         = flag.String("save", "", "all: directory to write each set's results and the comparison into")
	)
	flag.Parse()
	if *layers {
		*trace = 1
	}
	clients := clientCount()
	runtime.GOMAXPROCS(clients)

	if *workloadName == "all" {
		s := suite{seed: *seed, seconds: *seconds, repeat: *repeat, trace: *trace == 1, save: *save}
		if err := s.run(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}

	spec, ok := findWorkload(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
		os.Exit(2)
	}
	// A wedged op must not hang the driver: it waits 180 s at most.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "benchmark: run exceeded 170 s, aborting")
		os.Exit(3)
	})
	defer watchdog.Stop()

	printEnv(os.Stdout, *seed, clients)
	cfg := fullRun(spec, *seed, *seconds, *trace == 1)
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	decls := endToEndMetrics
	if cfg.trace {
		decls = perLayerMetrics()
	}
	if err := report(os.Stdout, res, decls); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !res.correct() {
		fmt.Fprintln(os.Stderr, "benchmark:", errIncorrect)
		os.Exit(1)
	}
}
