package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"gupster/internal/wire"
)

// The shape of a full-size run. Every reported number depends on these — U
// and the warm-up move all of them — so they are constants, not flags: a run
// made with other values could not be compared against BENCHMARK.json or
// baseline/.
const (
	fullUsers  = 2000            // population size U
	fullWarmup = 2 * time.Second // discarded before measuring
	fullSetups = 5               // times set-up is repeated
	outDir     = "out"           // span files and journal scratch, relative to the working directory

	// The measured seconds are cut into slices of about sliceWork of traffic,
	// each followed by a reading of the yardstick (refGap + refRead).
	sliceWork = 1200 * time.Millisecond
)

// runConfig is one workload run in this process — what the driver's command
// line asks for, plus the sizes the smoke test shrinks.
type runConfig struct {
	spec    workloadSpec
	seed    int64
	seconds float64 // measured time, cut into slices
	trace   bool    // per-layer pass instead of the end-to-end pass
	users   int
	clients int
	warmup  time.Duration
	setups  int // times set-up is repeated; setup_s is their median
	outDir  string
	log     io.Writer // human-readable report; the JSON line goes elsewhere
}

// fullRun is the configuration every command-line run uses.
func fullRun(spec workloadSpec, seed int64, seconds float64, trace bool) runConfig {
	return runConfig{
		spec: spec, seed: seed, seconds: seconds, trace: trace, users: fullUsers, clients: clientCount(),
		warmup: fullWarmup, setups: fullSetups, outDir: outDir, log: os.Stdout,
	}
}

// runResult is what one run prints.
type runResult struct {
	attempted int
	failed    int
	errs      []string           // first few failures, for the report
	metrics   map[string]float64 // end-to-end or per-layer, by declared name
}

func (r *runResult) correct() bool { return r.failed == 0 && len(r.errs) == 0 }

func (r *runResult) addErr(err error) {
	if err != nil && len(r.errs) < 8 {
		r.errs = append(r.errs, err.Error())
	}
}

// waveStats is one wave's raw record.
type waveStats struct {
	elapsed   time.Duration
	cpu       time.Duration // process user+sys over the wave
	attempted int
	failed    int
	lat       [2][]int64 // by op class, sorted
	all       []int64    // both classes, sorted
}

func (ws *waveStats) opsPerS() float64 {
	return float64(ws.attempted-ws.failed) / ws.elapsed.Seconds()
}

func (ws *waveStats) cpuUSPerOp() float64 {
	return float64(ws.cpu.Microseconds()) / float64(max(1, ws.attempted))
}

// quantileUS reads quantile q of a sorted sample, in microseconds.
func quantileUS(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)]) / 1e3
}

func median(v []float64) float64 {
	s := slices.Sorted(slices.Values(v))
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// session is a built rig with its closed-loop clients.
type session struct {
	cfg     runConfig
	pop     *population
	rig     *rig
	workers []*worker
	ref     *yardstick
}

// runWave drives every worker in a closed loop for d: each goroutine issues
// its next op only after the previous one returned. An op in flight at the
// deadline completes and counts; the rate uses the time actually elapsed.
func (s *session) runWave(ctx context.Context, d time.Duration, traced bool) (*waveStats, []*spanLog) {
	var logs []*spanLog
	t0 := time.Now()
	for _, w := range s.workers {
		w.lat, w.class = w.lat[:0], w.class[:0]
		w.spans = nil
		if traced {
			w.spans = newSpanLog(t0)
			logs = append(logs, w.spans)
		}
	}
	before := make([][2]int, len(s.workers))
	for i, w := range s.workers {
		before[i] = [2]int{w.attempted, w.failed}
	}
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, w := range s.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				w.runOp(ctx, s.cfg.spec, s.rig, s.pop)
			}
		}(w)
	}
	wg.Wait()
	ws := &waveStats{elapsed: time.Since(start), cpu: cpuTime() - cpu0}
	for i, w := range s.workers {
		ws.attempted += w.attempted - before[i][0]
		ws.failed += w.failed - before[i][1]
		for j, ns := range w.lat {
			ws.lat[w.class[j]] = append(ws.lat[w.class[j]], ns)
		}
		w.spans = nil
	}
	for c := range ws.lat {
		slices.Sort(ws.lat[c])
		ws.all = append(ws.all, ws.lat[c]...)
	}
	slices.Sort(ws.all)
	return ws, logs
}

// prefill touches every owner once through the workload's own call, so a
// cache at least as large as the population starts the warm-up full.
func (s *session) prefill(ctx context.Context) {
	var wg sync.WaitGroup
	for _, w := range s.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for i := w.idx; i < len(s.pop.users); i += len(s.workers) {
				u := &s.pop.users[i]
				w.attempted++
				doc, err := w.cli.GetVia(ctx, u.path, wire.PatternChaining)
				if err != nil {
					w.fail(fmt.Errorf("prefill %s: %w", u.id, err))
				} else if doc == nil || digest(doc) != u.digest {
					w.fail(fmt.Errorf("prefill %s: answer does not match the generated component", u.id))
				}
			}
		}(w)
	}
	wg.Wait()
}

// setUp builds the rig cfg.setups times and keeps the last. It returns each
// set-up's time as measured and at reference speed: scaled by the yardstick
// readings taken before and after it (the per-layer pass, which does not
// report setup_s, takes none).
func setUp(cfg runConfig, pop *population, y *yardstick) (s *session, raw, scaled []float64, err error) {
	// A reading, like a set-up, starts from a collected heap.
	read := func() (refReading, error) {
		runtime.GC()
		if cfg.trace {
			return refReading{}, nil
		}
		return y.read(0, refRead)
	}
	before, err := read()
	if err != nil {
		return nil, nil, nil, err
	}
	var r *rig
	for i := 0; i < max(1, cfg.setups); i++ {
		if r != nil {
			r.close()
			if r.dataDir != "" {
				os.RemoveAll(r.dataDir)
			}
			runtime.GC()
		}
		dir := ""
		if cfg.spec.durable {
			if dir, err = newScratchDir(cfg.outDir, "journal-"); err != nil {
				return nil, nil, nil, err
			}
		}
		start := time.Now()
		if r, err = buildRig(cfg.spec.rigSpec(cfg.users), pop, cfg.clients, dir); err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		raw = append(raw, time.Since(start).Seconds())
		after, err := read()
		if err != nil {
			r.close()
			return nil, nil, nil, err
		}
		if !cfg.trace {
			scaled = append(scaled, raw[i]*nominalRefNS/between(before, after).wallNS)
		}
		before = after
	}
	s = &session{cfg: cfg, pop: pop, rig: r, ref: y}
	for i := 0; i < cfg.clients; i++ {
		s.workers = append(s.workers, newWorker(i, r, cfg.seed, cfg.users))
	}
	return s, raw, scaled, nil
}

// runWorkload is one complete run: generate, set up, warm up, measure,
// check, tear down.
func runWorkload(cfg runConfig) (*runResult, error) {
	if cfg.clients > runtime.NumCPU() {
		return nil, fmt.Errorf("refusing to start %d clients on %d CPUs", cfg.clients, runtime.NumCPU())
	}
	if cfg.trace {
		cfg.setups = 1 // the per-layer pass does not report setup_s
	}
	ctx := context.Background()
	res := &runResult{metrics: make(map[string]float64)}
	rs := cfg.spec.rigSpec(cfg.users)
	fmt.Fprintf(cfg.log, "workload %s: %s\n", cfg.spec.name, cfg.spec.why)
	conns := "1 MDM connection, 1 goroutine each"
	if cfg.spec.op == opChurn {
		conns += ", plus 1 roaming-store connection to the MDM each"
	}
	fmt.Fprintf(cfg.log, "  users=%d book=%dB split=%d/%d stores cache_entries=%d durable=%v owners=%s clients=%d (%s), 1 process\n",
		rs.users, rs.bookBytes, rs.split, numStores, rs.cache, rs.durable, map[bool]string{true: "zipf(1.1)", false: "uniform"}[cfg.spec.zipf], cfg.clients, conns)

	pop := generate(rs, cfg.seed)
	y, err := newYardstick(cfg.clients)
	if err != nil {
		return nil, err
	}
	defer y.close()
	s, setups, setupsRef, err := setUp(cfg, pop, y)
	if err != nil {
		return nil, err
	}
	defer func() {
		s.rig.close()
		if s.rig.dataDir != "" {
			os.RemoveAll(s.rig.dataDir)
		}
	}()
	if rs.durable {
		fmt.Fprintf(cfg.log, "  journal: dir=%s fs=%s fsync=on compact_every=default(1024)\n", s.rig.dataDir, fsType(s.rig.dataDir))
	}
	fmt.Fprintf(cfg.log, "  setup_s runs: %.4f as measured, %.4f at reference speed\n", setups, setupsRef)

	// Warm-up, discarded: connections dial, pools and caches fill.
	if cfg.spec.op == opChaining && rs.cache >= rs.users {
		s.prefill(ctx)
	}
	if cfg.warmup > 0 {
		s.runWave(ctx, cfg.warmup, false)
	}

	if cfg.trace {
		if err := s.measureTraced(ctx, res); err != nil {
			return nil, err
		}
	} else {
		if err := s.measureEndToEnd(ctx, res, setupsRef); err != nil {
			return nil, err
		}
	}

	for _, w := range s.workers {
		res.attempted += w.attempted
		res.failed += w.failed
		res.addErr(w.firstErr)
	}
	if rs.durable {
		res.addErr(s.checkDirectory())
	}
	if cfg.trace {
		res.metrics["client.fail_ratio"] = float64(res.failed) / float64(max(1, res.attempted))
	}
	return res, nil
}

// measureEndToEnd is the untraced pass. The measured seconds are cut into
// slices: about sliceWork of closed-loop traffic, then a reading of the
// yardstick. Each slice's ops_per_s, p50_us and cpu_us_per_op are scaled to
// reference speed by the readings on either side of it, and the reported
// value is the median over the slices — of one run's slices a minority may be
// hit by something the yardstick does not see (a freeze of the whole VM, a
// burst between two readings) without moving the result. Every slice is
// printed as measured, with its readings, and the raw medians beside the
// result.
func (s *session) measureEndToEnd(ctx context.Context, res *runResult, setups []float64) error {
	cfg := s.cfg
	per := (sliceWork + refGap + refRead).Seconds()
	n := max(1, int(cfg.seconds/per+0.5))
	work := max(time.Duration(cfg.seconds/float64(n)*float64(time.Second))-refGap-refRead, refRead)
	before, err := s.ref.read(refGap, refRead)
	if err != nil {
		return err
	}
	var ops, p50, cpu, rawOps, rawP50, rawCPU, speed []float64
	samples := 0
	for k := 0; k < n; k++ {
		ws, _ := s.runWave(ctx, work, false)
		after, err := s.ref.read(refGap, refRead)
		if err != nil {
			return err
		}
		ref := between(before, after)
		before = after
		rawOps, rawP50, rawCPU = append(rawOps, ws.opsPerS()), append(rawP50, quantileUS(ws.all, 0.50)), append(rawCPU, ws.cpuUSPerOp())
		ops = append(ops, rawOps[k]*ref.wallNS/nominalRefNS)
		p50 = append(p50, rawP50[k]*nominalRefNS/ref.medianNS)
		cpu = append(cpu, rawCPU[k]*nominalRefNS/ref.cpuNS)
		speed = append(speed, nominalRefNS/ref.wallNS)
		samples += len(ws.all)
		fmt.Fprintf(cfg.log, "  slice %2d: %6d ops %8.1f ops/s  p50 %8.1f us  p95 %8.1f us  cpu %7.1f us/op  failed %d | yardstick wall %5.1f cpu %5.1f median %5.1f us/iteration\n",
			k+1, ws.attempted, rawOps[k], rawP50[k], quantileUS(ws.all, 0.95), rawCPU[k], ws.failed, ref.wallNS/1e3, ref.cpuNS/1e3, ref.medianNS/1e3)
	}
	res.metrics["setup_s"] = median(setups)
	res.metrics["ops_per_s"] = median(ops)
	res.metrics["p50_us"] = median(p50)
	res.metrics["cpu_us_per_op"] = median(cpu)
	fmt.Fprintf(cfg.log, "  %d slices of %v, %d latency samples; as measured, medians over slices: ops/s %.1f  p50 %.1f  cpu %.1f (min..max: ops/s %s  p50 %s  cpu %s); machine at %.2f of reference speed (%s)\n",
		n, work.Round(time.Millisecond), samples, median(rawOps), median(rawP50), median(rawCPU), minMax(rawOps), minMax(rawP50), minMax(rawCPU), median(speed), minMax(speed))
	return nil
}

// checkDirectory is directory-churn's end-of-run oracle: the live directory
// equals the model of acked writes, and so does a fresh MDM recovered from
// the closed journal — every acked write survives a restart.
func (s *session) checkDirectory() error {
	want := model(s.pop, s.workers)
	if err := sameSet(coverageSet(s.rig.mdm.CoverageSnapshot()), want); err != nil {
		return fmt.Errorf("live directory differs from the model of acked writes: %w", err)
	}
	s.rig.close() // closes the journal; close is idempotent
	got, err := restartCoverage(s.rig.dataDir, s.rig.signer)
	if err != nil {
		return fmt.Errorf("restart from journal: %w", err)
	}
	if err := sameSet(got, want); err != nil {
		return fmt.Errorf("directory recovered from the journal differs from the model: %w", err)
	}
	fmt.Fprintf(s.cfg.log, "  restart check: %d registrations recovered from the journal match the model\n", len(got))
	return nil
}

// minMax prints a sample's min..max.
func minMax(v []float64) string {
	return fmt.Sprintf("%.4g..%.4g", slices.Min(v), slices.Max(v))
}

// fsType names the filesystem a path lives on, from statfs's magic number.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

var errIncorrect = errors.New("benchmark: an answer was wrong or an op failed")
