package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"testing"
	"time"
)

// fullManifest is every name BENCHMARK.json declares.
type fullManifest struct {
	Workloads []metricDecl `json:"workloads"`
	EndToEnd  []metricDecl `json:"end_to_end"`
	PerLayer  []metricDecl `json:"per_layer"`
}

func names(decls []metricDecl) []string {
	out := make([]string, len(decls))
	for i, d := range decls {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("%s: %d names emitted, %d declared in BENCHMARK.json\n got  %v\n want %v", what, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: emitted %q where BENCHMARK.json declares %q", what, got[i], want[i])
		}
	}
}

// TestSmoke runs every workload, end-to-end pass and per-layer pass, for one
// 1 s wave at U = 200: no op may fail, the names emitted must be exactly the
// names BENCHMARK.json declares, and the rig must leave no goroutine behind.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second; skipped with -short")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man fullManifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	charset := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, list := range [][]metricDecl{man.Workloads, man.EndToEnd, man.PerLayer} {
		for _, d := range list {
			if !charset.MatchString(d.Name) {
				t.Errorf("name %q is outside [A-Za-z0-9_.-]", d.Name)
			}
		}
	}
	var specNames []string
	for _, w := range workloads {
		specNames = append(specNames, w.name)
	}
	sameNames(t, "workloads", specNames, names(man.Workloads))
	sameNames(t, "end_to_end declarations", names(endToEndMetrics), names(man.EndToEnd))
	sameNames(t, "per_layer declarations", names(perLayerMetrics()), names(man.PerLayer))

	before := runtime.NumGoroutine()
	for _, spec := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{
				spec: spec, seed: 1, seconds: 1, trace: trace, users: 200, clients: clientCount(),
				warmup: 200 * time.Millisecond, setups: 1, outDir: t.TempDir(), log: io.Discard,
			}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", spec.name, trace, err)
			}
			if res.attempted == 0 || !res.correct() {
				t.Fatalf("%s trace=%v: %d of %d ops failed: %v", spec.name, trace, res.failed, res.attempted, res.errs)
			}
			emitted := make([]string, 0, len(res.metrics))
			for name := range res.metrics {
				emitted = append(emitted, name)
			}
			want := names(man.EndToEnd)
			if trace {
				want = names(man.PerLayer)
			}
			sameNames(t, spec.name+" metrics", emitted, want)
		}
	}

	// Connection read loops exit just after their sockets close.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines: %d before the rigs, %d after they closed\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}
