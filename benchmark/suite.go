package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// suite runs every workload, each run in a fresh child process (this
// program re-executed with --workload), rounds interleaved: round k of every
// workload before round k+1 of any, so drift in the machine lands on all of
// them alike. A metric's value for a set is the median over rounds.
type suite struct {
	seed    int64
	seconds float64
	repeat  int
	trace   bool
	save    string
}

// suiteRounds is how many interleaved rounds make one set.
const suiteRounds = 3

// setResult is one full set: per workload and end-to-end metric, every
// round's value and their median.
type setResult struct {
	Seed      int64                           `json:"seed"`
	Seconds   float64                         `json:"seconds"`
	Rounds    int                             `json:"rounds"`
	Attempted map[string]int                  `json:"attempted"`
	Failed    map[string]int                  `json:"failed"`
	Values    map[string]map[string][]float64 `json:"values"`
	Medians   map[string]map[string]float64   `json:"medians"`
}

// manifest is the part of BENCHMARK.json the comparison needs.
type manifest struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readManifest() (*manifest, error) {
	for _, path := range []string{filepath.Join("..", "BENCHMARK.json"), "BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &m, nil
	}
	return nil, errors.New("BENCHMARK.json not found in .. or .")
}

// child runs one workload in a fresh process and decodes its result line.
func (s *suite) child(w io.Writer, workload string, trace bool, passThrough bool) (*resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(s.seed, 10),
		"--seconds", strconv.FormatFloat(s.seconds, 'f', -1, 64), "--trace", t)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	out := strings.TrimRight(stdout.String(), "\n")
	last := out[strings.LastIndexByte(out, '\n')+1:]
	if passThrough {
		// The report without the machine-readable result line.
		fmt.Fprintln(w, strings.TrimSuffix(out, last))
	}
	var line resultLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	if runErr != nil || !line.Correct {
		return &line, fmt.Errorf("%s: %d of %d ops failed or were wrong", workload, line.Failed, line.Attempted)
	}
	return &line, nil
}

func (s *suite) runSet(w io.Writer) (*setResult, error) {
	set := &setResult{
		Seed: s.seed, Seconds: s.seconds, Rounds: suiteRounds,
		Attempted: map[string]int{}, Failed: map[string]int{},
		Values: map[string]map[string][]float64{}, Medians: map[string]map[string]float64{},
	}
	for k := 1; k <= suiteRounds; k++ {
		for _, wl := range workloads {
			line, err := s.child(w, wl.name, false, false)
			if line != nil {
				set.Attempted[wl.name] += line.Attempted
				set.Failed[wl.name] += line.Failed
			}
			if err != nil {
				return set, err
			}
			if set.Values[wl.name] == nil {
				set.Values[wl.name] = map[string][]float64{}
			}
			fmt.Fprintf(w, "round %d %-16s", k, wl.name)
			for _, d := range endToEndMetrics {
				v := line.Metrics[d.Name].Value
				set.Values[wl.name][d.Name] = append(set.Values[wl.name][d.Name], v)
				fmt.Fprintf(w, "  %s=%.4g", d.Name, v)
			}
			fmt.Fprintf(w, "  failed=%d/%d\n", line.Failed, line.Attempted)
		}
	}
	fmt.Fprintf(w, "\n%-16s %-14s %14s %14s %14s  %s\n", "workload", "metric", "median", "min", "max", "unit")
	for _, wl := range workloads {
		set.Medians[wl.name] = map[string]float64{}
		for _, d := range endToEndMetrics {
			v := set.Values[wl.name][d.Name]
			lo, hi := v[0], v[0]
			for _, f := range v {
				lo, hi = math.Min(lo, f), math.Max(hi, f)
			}
			set.Medians[wl.name][d.Name] = median(v)
			fmt.Fprintf(w, "%-16s %-14s %14.4f %14.4f %14.4f  %s\n", wl.name, d.Name, median(v), lo, hi, d.Unit)
		}
		fmt.Fprintf(w, "%-16s %-14s %14.6f %14s %14s  ratio (%d of %d)\n", wl.name, "fail_ratio",
			float64(set.Failed[wl.name])/float64(max(1, set.Attempted[wl.name])), "", "", set.Failed[wl.name], set.Attempted[wl.name])
	}
	return set, nil
}

func (s *suite) run(stdout io.Writer) error {
	var record bytes.Buffer
	w := io.MultiWriter(stdout, &record)
	printEnv(w, s.seed, clientCount())
	fmt.Fprintf(w, "suite: %d workloads x %d rounds x %g s measured, one process per run, %d set(s)\n", len(workloads), suiteRounds, s.seconds, s.repeat)
	var sets []*setResult
	for n := 1; n <= max(1, s.repeat); n++ {
		fmt.Fprintf(w, "\n== set %d ==\n", n)
		set, err := s.runSet(w)
		if err != nil {
			return err
		}
		sets = append(sets, set)
		if s.save != "" {
			if err := saveJSON(filepath.Join(s.save, fmt.Sprintf("set-%d.json", n)), set); err != nil {
				return err
			}
		}
	}
	if s.trace {
		for _, wl := range workloads {
			fmt.Fprintf(w, "\n== per-layer pass: %s ==\n", wl.name)
			if _, err := s.child(w, wl.name, true, true); err != nil {
				return err
			}
		}
	}
	var breach error
	if len(sets) > 1 {
		breach = compareSets(w, sets)
	}
	if s.save != "" {
		if err := os.WriteFile(filepath.Join(s.save, "repeat.txt"), record.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return breach
}

// compareSets is the repeatability self-check: the same code measured twice
// must agree, per workload and end-to-end metric, within the bound
// BENCHMARK.json declares for that metric.
func compareSets(w io.Writer, sets []*setResult) error {
	man, err := readManifest()
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	for _, m := range man.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	a, b := sets[0], sets[len(sets)-1]
	breaches := 0
	fmt.Fprintf(w, "\n== repeatability: set 1 vs set %d ==\n", len(sets))
	fmt.Fprintf(w, "%-16s %-14s %14s %14s %9s %7s\n", "workload", "metric", "set 1", fmt.Sprintf("set %d", len(sets)), "diff", "bound")
	for _, wl := range workloads {
		for _, d := range endToEndMetrics {
			va, vb := a.Medians[wl.name][d.Name], b.Medians[wl.name][d.Name]
			diff := math.Abs(vb-va) / va
			mark := ""
			if diff > bounds[d.Name] {
				mark = "  BREACH"
				breaches++
			}
			fmt.Fprintf(w, "%-16s %-14s %14.4f %14.4f %8.2f%% %6.0f%%%s\n", wl.name, d.Name, va, vb, 100*diff, 100*bounds[d.Name], mark)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d workload x metric pairs differ between sets by more than their bound", breaches)
	}
	return nil
}

func saveJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
