package scenario

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"gupster/internal/core"
	"gupster/internal/dirclient"
	"gupster/internal/metrics"
	"gupster/internal/policy"
	"gupster/internal/reachme"
	"gupster/internal/store"
	"gupster/internal/syncml"
	"gupster/internal/token"
	"gupster/internal/wire"
	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

// RunOptions parameterize a scenario run.
type RunOptions struct {
	// Fast shrinks the run for smoke testing: round counts, send windows
	// and calibration iterations are scaled down (topology untouched).
	Fast bool
	// Seed overrides the scenario's seed.
	Seed *int64
	// Logf narrates phase progress; nil discards.
	Logf func(format string, args ...any)
	// OnRequest observes every scheduled request as it is drawn —
	// (phase, client stream, request) — the reproducibility test's hook.
	// Closed-loop streams are the client indices; open-loop is -1.
	OnRequest func(phase string, client int, req Request)
}

func (o *RunOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// reachAt is the fixed instant reach-me decisions evaluate at — a
// Wednesday working hour, so the committed preference rules route to the
// office line. A wall-clock `at` would make runs time-of-day dependent.
var reachAt = time.Date(2003, time.January, 15, 10, 30, 0, 0, time.UTC)

// liveness bounds unbudgeted requests so a wedged phase terminates; it
// never binds in practice.
const liveness = 60 * time.Second

// engine is one run's mutable state.
type engine struct {
	sc   *Scenario
	opts RunOptions
	seed int64

	// serviceP50/capacity come from the run's first calibration; factor
	// rates and budgets resolve against them.
	serviceP50 time.Duration
	capacity   float64

	report *Report
}

// Run executes a scenario: rigs are built and torn down in declaration
// order, each running the phases that name it in file order; assertions
// evaluate against the assembled report at the end.
func Run(sc *Scenario, opts RunOptions) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	e := &engine{sc: sc, opts: opts, seed: sc.Seed}
	if opts.Seed != nil {
		e.seed = *opts.Seed
	}
	e.report = &Report{Scenario: sc.Name, Seed: e.seed, GOMAXPROCS: runtime.GOMAXPROCS(0)}

	for rigIdx := range sc.Topology.Rigs {
		spec := &sc.Topology.Rigs[rigIdx]
		var phaseIdxs []int
		for i := range sc.Phases {
			if sc.Phases[i].Rig == spec.Name {
				phaseIdxs = append(phaseIdxs, i)
			}
		}
		if len(phaseIdxs) == 0 {
			continue
		}
		opts.logf("rig %s: building (%s, %d stores)", spec.Name, spec.Layout, spec.Stores)
		rig, err := Build(*spec, e.seed, rigIdx)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: rig %s: %w", sc.Name, spec.Name, err)
		}
		err = e.runRig(rig, phaseIdxs)
		audit := RegistrationAudit{
			Rig:      spec.Name,
			Expected: rig.ExpectedRegistrations(),
		}
		if err == nil {
			rig.auditCoverage(&audit)
			audit.ProbeFailures = rig.probeCoverage(context.Background())
			e.report.Registrations = append(e.report.Registrations, audit)
			e.report.MDMSpans += rig.MDM.Tracer().SpanCount()
		}
		rig.Close()
		if err != nil {
			return nil, err
		}
	}

	Evaluate(sc, e.report)
	return e.report, nil
}

// runRig runs one rig's phases.
func (e *engine) runRig(rig *Rig, phaseIdxs []int) error {
	run := &rigRun{engine: e, rig: rig}
	defer run.close()
	for _, pi := range phaseIdxs {
		p := &e.sc.Phases[pi]
		e.opts.logf("phase %s: starting", p.Name)
		tl := &timeline{phase: p, fast: e.opts.Fast, table: run.actions(), log: e.opts.logf}
		pr, err := tl.run(func() (*PhaseReport, error) { return run.runPhase(p, pi) })
		if err != nil {
			return fmt.Errorf("phase %s: %w", p.Name, err)
		}
		e.report.Phases = append(e.report.Phases, *pr)
	}
	return nil
}

// rigRun holds the per-rig connection pools.
type rigRun struct {
	engine *engine
	rig    *Rig

	mu sync.Mutex
	// dirs are handles on the rig's directory, seeded with every member
	// address. Whatever the rig's layout — one MDM, a quorum constellation,
	// a shard ring — raw directory traffic rides them, so a leader kill
	// re-homes and a mid-phase rebalance re-routes instead of erroring.
	dirs     []*dirclient.Directory
	coreClis []*core.Client
	// stores holds the direct connections to the stores (through their
	// fault proxies where those exist).
	stores wire.Pool
	// userStore maps user → owning store index (sharded layout).
	userStore map[string]int
}

func (rr *rigRun) close() {
	for _, c := range rr.dirs {
		c.Close()
	}
	for _, c := range rr.coreClis {
		c.Close()
	}
	rr.stores.Close()
	rr.dirs, rr.coreClis = nil, nil
}

// dir returns (dialing on demand) the i-th directory handle.
func (rr *rigRun) dir(i int) (*dirclient.Directory, error) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	for len(rr.dirs) <= i {
		d, err := dirclient.Dial(rr.rig.MemberAddrs()...)
		if err != nil {
			return nil, err
		}
		rr.dirs = append(rr.dirs, d)
	}
	return rr.dirs[i], nil
}

// dirIdx maps a request index onto the pre-dialed handle pool.
func (rr *rigRun) dirIdx(i int) int {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if n := len(rr.dirs); n > 0 {
		return i % n
	}
	return 0
}

// coreCli returns the i-th pooled core client (reach-me decisions).
func (rr *rigRun) coreCli(i int) (*core.Client, error) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	for len(rr.coreClis) <= i {
		c, err := core.DialMDM(rr.rig.MDMAddr, rr.rig.Users[0], "self")
		if err != nil {
			return nil, err
		}
		rr.coreClis = append(rr.coreClis, c)
	}
	return rr.coreClis[i], nil
}

// storeFor maps a user (or, in the split layout, a request index) to the
// owning store index.
func (rr *rigRun) storeFor(user string, i int) int {
	if rr.rig.Spec.Layout == LayoutSplit {
		return i % len(rr.rig.Stores)
	}
	rr.mu.Lock()
	if rr.userStore == nil {
		rr.userStore = map[string]int{}
		for idx, u := range rr.rig.Users {
			rr.userStore[u] = idx % len(rr.rig.Stores)
		}
	}
	s := rr.userStore[user]
	rr.mu.Unlock()
	return s
}

// window is the phase's open-loop send window: its duration, shrunk in
// fast mode.
func (p *Phase) window(fast bool) time.Duration {
	if fast && p.Duration > 500*time.Millisecond {
		return 500 * time.Millisecond
	}
	return p.Duration
}

// action is one row of a timeline's action table: what an event of that
// kind does to the rig when it fires. It blocks until the fault has played
// out (a new leader, a landed repair, a healed partition) and records what
// it measured through tl.report.
type action func(tl *timeline, ev *Event)

// timeline is the one scheduler of a phase's events.
type timeline struct {
	phase *Phase
	fast  bool
	table map[string]action
	log   func(format string, args ...any)

	mu sync.Mutex
	// out collects what the actions measured — the fault timings and the
	// herd's failures — and is folded into the phase's report.
	out PhaseReport
}

func (tl *timeline) logf(format string, args ...any) {
	tl.log("phase "+tl.phase.Name+": "+format, args...)
}

// report lets an action record its outcome.
func (tl *timeline) report(fn func(out *PhaseReport)) {
	tl.mu.Lock()
	fn(&tl.out)
	tl.mu.Unlock()
}

// run drives load with the phase's events around it. Link settings at
// instant 0 are applied first, synchronously, so the first request already
// sees them. Every other event fires At into the load in its own
// goroutine — a herd runs beside the load, a second fault may land while
// the first is still being repaired — and run returns once the load and
// every action have finished. Fast mode shrinks the send window under the
// events, so one that would miss it is pulled to its middle.
func (tl *timeline) run(load func() (*PhaseReport, error)) (*PhaseReport, error) {
	early := func(ev *Event) bool { return ev.At == 0 && ev.Action == ActionLink }
	for i := range tl.phase.Events {
		if ev := &tl.phase.Events[i]; early(ev) {
			tl.table[ev.Action](tl, ev)
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := range tl.phase.Events {
		ev := &tl.phase.Events[i]
		if early(ev) {
			continue
		}
		at := ev.At
		if w := tl.phase.window(true); tl.fast && at >= w {
			at = w / 2
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(start.Add(at)))
			tl.table[ev.Action](tl, ev)
		}()
	}
	pr, err := load()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	out := &tl.out
	pr.Errors += out.Errors
	pr.FailoverMillis = out.FailoverMillis
	pr.RebalanceMillis, pr.MovedOwners = out.RebalanceMillis, out.MovedOwners
	pr.RepairMillis, pr.RepairEpoch, pr.PromotedShards = out.RepairMillis, out.RepairEpoch, out.PromotedShards
	return pr, nil
}

// actions is the rig-backed action table.
func (rr *rigRun) actions() map[string]action {
	return map[string]action{
		ActionLink:       rr.setLink,
		ActionReregister: rr.reregister,
		ActionKill:       rr.kill,
		ActionPartition:  rr.partition,
		ActionRebalance:  rr.rebalance,
	}
}

// setLink applies an event's link settings. The proxy is nil only under a
// bare store blackout (Event.validate).
func (rr *rigRun) setLink(tl *timeline, ev *Event) {
	proxy := rr.rig.Link(ev.Target)
	if ev.Blackout != nil {
		if idx := storeIndex(ev.Target); idx >= 0 {
			tl.logf("blackout %s: %t", ev.Target, *ev.Blackout)
			rr.rig.BlackoutStore(idx, *ev.Blackout)
		} else {
			proxy.Blackout(*ev.Blackout)
		}
	}
	if ev.Latency != nil || ev.Jitter != nil {
		var lat, jit time.Duration
		if ev.Latency != nil {
			lat = *ev.Latency
		}
		if ev.Jitter != nil {
			jit = *ev.Jitter
		}
		proxy.SetLatency(lat, jit)
	}
	if ev.Bandwidth != nil {
		proxy.SetBandwidth(*ev.Bandwidth)
	}
}

// reregister is the thundering herd: the target store — or every dead
// one — replays its whole coverage at once, beside the phase's load.
func (rr *rigRun) reregister(tl *timeline, ev *Event) {
	targets := []int{storeIndex(ev.Target)}
	if ev.Target == "all-dead" {
		targets = rr.rig.DeadStores()
	}
	tl.logf("re-registration herd of %d stores", len(targets))
	var wg sync.WaitGroup
	for _, idx := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := rr.rig.ReviveStore(context.Background(), idx); err != nil {
				tl.report(func(out *PhaseReport) { out.Errors++ })
			}
		}()
	}
	wg.Wait()
}

// millisSince is a measured fault duration; it floors at 1 because 0 in a
// report means "no such fault in this phase".
func millisSince(t0 time.Time) int64 {
	return max(time.Since(t0).Milliseconds(), 1)
}

// kill assassinates shard 0's leader and times the election of its
// replacement, or hard-kills every member of a shard and times the
// constellation's repair.
func (rr *rigRun) kill(tl *timeline, ev *Event) {
	if ev.Target != "leader" {
		since := rr.rig.CurrentEpoch()
		if !rr.rig.Kill(ev.Target) {
			tl.logf("shard %s not alive to kill", ev.Target)
			return
		}
		tl.logf("killed shard %s", ev.Target)
		rr.awaitRepair(tl, since, time.Now())
		return
	}
	idx := rr.rig.KillLeader(0)
	if idx < 0 {
		tl.logf("no leader to kill")
		return
	}
	tl.logf("killed leader member %d", idx)
	t0 := time.Now()
	if rr.rig.WaitLeader(0, liveness) >= 0 {
		ms := millisSince(t0)
		tl.report(func(out *PhaseReport) { out.FailoverMillis = ms })
		tl.logf("new leader elected after %dms", ms)
	}
}

// awaitRepair is the tail a shard kill and a partition share: wait for
// gossip detection plus epoch-fenced spare promotion to put the lost
// keyspace back in service, and record how long that took from t0. With
// several shard faults in one phase the report keeps the slowest repair and
// the highest epoch.
func (rr *rigRun) awaitRepair(tl *timeline, since uint64, t0 time.Time) {
	ev, ok := rr.rig.WaitRepair(since, liveness)
	if !ok {
		tl.logf("no auto-repair within %s", liveness)
		return
	}
	ms := millisSince(t0)
	tl.report(func(out *PhaseReport) {
		out.RepairMillis = max(out.RepairMillis, ms)
		out.RepairEpoch = max(out.RepairEpoch, ev.Epoch)
		out.PromotedShards = append(out.PromotedShards, ev.Promoted...)
	})
	rr.rig.refreshShardView()
	tl.logf("auto-repair to epoch %d in %dms (dead %v, promoted %v)", ev.Epoch, ms, ev.Dead, ev.Promoted)
}

// partition severs one shard's replies: the shard still hears the
// constellation but cannot be heard, so its peers must confirm it dead and
// promote a spare under a higher epoch, and the partitioned minority must
// fence itself rather than keep serving its evicted slice. The partition
// lifts only after the repair completes (heal delay measured from when it
// was imposed).
func (rr *rigRun) partition(tl *timeline, ev *Event) {
	since := rr.rig.CurrentEpoch()
	if !rr.rig.Partition(ev.Target, true) {
		tl.logf("shard %s not alive to partition", ev.Target)
		return
	}
	tl.logf("one-way partition on shard %s", ev.Target)
	t0 := time.Now()
	rr.awaitRepair(tl, since, t0)
	if ev.HealAfter > 0 {
		time.Sleep(ev.HealAfter - time.Since(t0))
		rr.rig.Partition(ev.Target, false)
		tl.logf("healed partition on shard %s", ev.Target)
	}
}

// rebalance expands the shard map onto the spares mid-storm: the resolve
// stream must ride through the handoff and drain windows without a single
// failed request.
func (rr *rigRun) rebalance(tl *timeline, ev *Event) {
	t0 := time.Now()
	moved, err := rr.rig.Rebalance(context.Background())
	if err != nil {
		tl.logf("rebalance failed: %v", err)
		return
	}
	ms := millisSince(t0)
	tl.report(func(out *PhaseReport) { out.RebalanceMillis, out.MovedOwners = ms, moved })
	tl.logf("rebalanced onto %d shards in %dms (%d owners moved)", len(rr.rig.Nodes), ms, moved)
}

// resolveRate turns a phase rate into requests/sec.
func (e *engine) resolveRate(r Rate) (float64, error) {
	if r.PerSec > 0 {
		return r.PerSec, nil
	}
	if e.capacity <= 0 {
		return 0, errors.New("factor rate needs a calibration phase earlier in the run")
	}
	return r.Factor * e.capacity, nil
}

// resolveBudget turns a phase budget into a deadline (0 = none). The
// factor form is the E19 derivation: factor × service p50, clamped to
// [100ms, 1s].
func (e *engine) resolveBudget(b Budget) (time.Duration, error) {
	if b.IsZero() {
		return 0, nil
	}
	if b.Duration > 0 {
		return b.Duration, nil
	}
	if e.serviceP50 <= 0 {
		return 0, errors.New("factor budget needs a calibration phase earlier in the run")
	}
	d := time.Duration(b.Factor * float64(e.serviceP50))
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	if d > time.Second {
		d = time.Second
	}
	return d, nil
}

// phaseOutcome accumulates classified results.
type phaseOutcome struct {
	mu       sync.Mutex
	h        *metrics.Histogram
	pr       *PhaseReport
	firstErr error
}

// classify applies the E19 outcome taxonomy: in-budget completion,
// late completion (wasted work), explicit shed, budget expiry (local or
// propagated), or error.
func (o *phaseOutcome) classify(err error, elapsed, budget time.Duration) {
	var ov *wire.OverloadedError
	o.mu.Lock()
	defer o.mu.Unlock()
	switch {
	case err == nil && (budget <= 0 || elapsed <= budget):
		o.pr.InBudget++
		o.h.Record(elapsed)
	case err == nil:
		o.pr.Expired++
	case errors.As(err, &ov):
		o.pr.Shed++
	case errors.Is(err, context.DeadlineExceeded):
		o.pr.Expired++
	case isRemoteExpiry(err):
		o.pr.Expired++
	default:
		o.pr.Errors++
		if o.firstErr == nil {
			o.firstErr = err
		}
	}
}

// isRemoteExpiry reports a remote refusal caused by the propagated
// budget expiring on a downstream hop.
func isRemoteExpiry(err error) bool {
	var re *wire.RemoteError
	return errors.As(err, &re) && strings.Contains(re.Msg, "deadline exceeded")
}

// runPhase dispatches on the phase kind.
func (rr *rigRun) runPhase(p *Phase, phaseIdx int) (*PhaseReport, error) {
	fast := rr.engine.opts.Fast
	before := rr.rig.MDM.Pipeline().Snapshot()
	resBefore := sampleResources()
	var pr *PhaseReport
	var err error
	switch {
	case p.Calibrate > 0:
		pr, err = rr.runCalibrate(p, fast)
	case p.Rounds > 0:
		pr, err = rr.runClosed(p, phaseIdx, fast)
	default:
		pr, err = rr.runOpen(p, phaseIdx, fast)
	}
	if err != nil {
		return nil, err
	}
	after := rr.rig.MDM.Pipeline().Snapshot()
	flights := after.Flights - before.Flights
	hits := after.CoalesceHits - before.CoalesceHits
	if flights+hits > 0 {
		pr.CoalesceHitRate = float64(hits) / float64(flights+hits)
	}
	pr.FanOutCalls = after.FanOutCalls - before.FanOutCalls
	pr.Resources = phaseDelta(resBefore, sampleResources())
	return pr, nil
}

// resolveVia issues one raw resolve for user's address book (or the
// request's split path) through a directory handle.
func resolveVia(ctx context.Context, d *dirclient.Directory, user, path, pattern string) error {
	var resp wire.ResolveResponse
	return d.Call(ctx, user, wire.TypeResolve, &wire.ResolveRequest{
		Path:    path,
		Context: policy.Context{Requester: user},
		Verb:    token.VerbFetch,
		Pattern: wire.QueryPattern(pattern),
	}, &resp)
}

// runCalibrate measures the unloaded sequential service p50. The run's
// first calibration fixes the service time and capacity every factor
// rate/budget resolves against; later calibrations only warm their rig
// (admission windows, connection pools).
func (rr *rigRun) runCalibrate(p *Phase, fast bool) (*PhaseReport, error) {
	iters := p.Calibrate
	if fast && iters > 5 {
		iters = 5
	}
	d, err := rr.dir(0)
	if err != nil {
		return nil, err
	}
	pr := &PhaseReport{Name: p.Name, Rig: p.Rig, Kind: "calibrate", Sent: iters}
	var samples []time.Duration
	start := time.Now()
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		user := rr.rig.Users[i%len(rr.rig.Users)]
		path := fmt.Sprintf("/user[@id='%s']/address-book", user)
		if err := resolveVia(context.Background(), d, user, path, string(wire.PatternChaining)); err != nil {
			return nil, fmt.Errorf("calibrate: %w", err)
		}
		samples = append(samples, time.Since(t0))
	}
	elapsed := time.Since(start)
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	p50 := samples[len(samples)/2]
	e := rr.engine
	if e.serviceP50 == 0 {
		e.serviceP50 = p50
		e.capacity = 1 / p50.Seconds()
		e.report.ServiceP50Micros = p50.Microseconds()
		e.opts.logf("calibrated: service p50 %s, capacity %.1f/s", p50, e.capacity)
	}
	pr.InBudget = iters
	pr.P50Micros = p50.Microseconds()
	pr.P95Micros = samples[len(samples)*95/100].Microseconds()
	pr.P99Micros = samples[len(samples)*99/100].Microseconds()
	pr.ThroughputPerSec = float64(iters) / elapsed.Seconds()
	pr.GoodputPerSec = pr.ThroughputPerSec
	pr.DurationMillis = elapsed.Milliseconds()
	return pr, nil
}

// execCore executes one scheduled request on a closed-loop client.
// Returns how many individual requests it counted (batch resolves count
// each path).
func (rr *rigRun) execCore(ctx context.Context, cli *core.Client, req Request, phaseIdx, reqIdx int, o *phaseOutcome, budget time.Duration) int {
	rig := rr.rig
	switch req.Verb {
	case VerbRegister:
		return rr.execRegister(ctx, req, phaseIdx, reqIdx, 0, o, budget)
	case VerbResolve:
		if req.Batch {
			t0 := time.Now()
			results, err := cli.GetBatch(ctx, rig.Paths)
			if err != nil {
				o.classify(err, time.Since(t0), budget)
				return 1
			}
			per := time.Since(t0) / time.Duration(len(rig.Paths))
			for _, res := range results {
				o.classify(res.Err, per, budget)
			}
			return len(results)
		}
		cli.Identity = req.User
		path := rr.pathFor(req, reqIdx)
		t0 := time.Now()
		var err error
		if req.Pattern == "referral" {
			_, err = cli.Get(ctx, path)
		} else {
			_, err = cli.GetVia(ctx, path, wire.QueryPattern(req.Pattern))
		}
		o.classify(err, time.Since(t0), budget)
		return 1
	case VerbReachMe:
		t0 := time.Now()
		err := reachMe(ctx, cli, req.User)
		o.classify(err, time.Since(t0), budget)
		return 1
	default:
		return rr.execStore(ctx, req, reqIdx, o, budget)
	}
}

// reachMe runs the reach-me decision for user over their full profile,
// fetched through cli.
func reachMe(ctx context.Context, cli *core.Client, user string) error {
	svc := &reachme.Service{Profile: reachme.GetterFunc(func(ctx context.Context, path string) (*xmltree.Node, error) {
		return cli.GetAs(ctx, path, probeContext(user))
	})}
	_, err := svc.Decide(ctx, user, reachAt)
	return err
}

// execRegister issues one fresh coverage registration through a
// directory handle. A nil error means the directory durably holds it (at
// quorum, on a replicated rig) — the teardown audit demands every acked
// one back from whoever leads after the run's faults.
func (rr *rigRun) execRegister(ctx context.Context, req Request, phaseIdx, reqIdx, connIdx int, o *phaseOutcome, budget time.Duration) int {
	d, err := rr.dir(connIdx)
	if err != nil {
		o.classify(err, 0, budget)
		return 1
	}
	node := rr.rig.Stores[rr.storeFor(req.User, reqIdx)]
	reg := wire.RegisterRequest{
		Store:   node.Engine.ID(),
		Address: node.Addr,
		Path:    fmt.Sprintf("/user[@id='%s']/scratch-p%d-%d", req.User, phaseIdx, reqIdx),
	}
	t0 := time.Now()
	err = d.Call(ctx, req.User, wire.TypeRegister, &reg, nil)
	if err == nil {
		rr.rig.RecordAcked(reg)
	}
	o.classify(err, time.Since(t0), budget)
	return 1
}

// pathFor picks the resolve target of a non-batch request: the user's
// address book, or — split layout — one of the registered split paths.
func (rr *rigRun) pathFor(req Request, reqIdx int) string {
	if rr.rig.Spec.Layout == LayoutSplit && req.Pattern == "referral" {
		return rr.rig.Paths[reqIdx%len(rr.rig.Paths)]
	}
	return fmt.Sprintf("/user[@id='%s']/address-book", req.User)
}

// execStore executes a direct-store verb (fetch, sync).
func (rr *rigRun) execStore(ctx context.Context, req Request, reqIdx int, o *phaseOutcome, budget time.Duration) int {
	rig := rr.rig
	idx := rr.storeFor(req.User, reqIdx)
	sc, err := store.Executor{Pool: &rr.stores}.Client(ctx, rig.Stores[idx].Addr)
	if err != nil {
		o.classify(err, 0, budget)
		return 1
	}
	storeID := rig.Stores[idx].Engine.ID()
	switch req.Verb {
	case VerbFetch:
		path := fmt.Sprintf("/user[@id='%s']/address-book", req.User)
		q := rig.Signer.Sign(storeID, req.User, xpath.MustParse(path), token.VerbFetch, req.User, time.Minute)
		t0 := time.Now()
		_, _, err := sc.Fetch(ctx, q)
		o.classify(err, time.Since(t0), budget)
	case VerbSync:
		// A fast sync of the user's calendar: the device replaces one
		// probe event each time, so the component stays bounded across
		// the phase.
		path := fmt.Sprintf("/user[@id='%s']/calendar", req.User)
		q := rig.Signer.Sign(storeID, req.User, xpath.MustParse(path), token.VerbUpdate, req.User, time.Minute)
		dev := syncml.NewDevice(xmltree.DefaultKeys)
		dev.Edit(func(local *xmltree.Node) *xmltree.Node {
			if local == nil {
				local = xmltree.New("calendar")
			}
			local.Add(xmltree.New("event").
				SetAttr("id", "wsync").SetAttr("day", "Mon").
				SetAttr("start", "07:00").SetAttr("end", "07:30"))
			return local
		})
		t0 := time.Now()
		_, err := dev.Sync(ctx, sc.SyncTransport(q), syncml.Merge)
		o.classify(err, time.Since(t0), budget)
	}
	return 1
}

// runClosed drives a closed-loop phase: Clients goroutines, each on a
// fresh connection, each drawing Rounds requests from its own
// deterministic stream.
func (rr *rigRun) runClosed(p *Phase, phaseIdx int, fast bool) (*PhaseReport, error) {
	clients, rounds := p.Clients, p.Rounds
	if fast {
		if clients > 8 {
			clients = 8
		}
		if rounds > 2 {
			rounds = 2
		}
	}
	budget, err := rr.engine.resolveBudget(p.Budget)
	if err != nil {
		return nil, err
	}
	pr := &PhaseReport{Name: p.Name, Rig: p.Rig, Kind: "closed"}
	o := &phaseOutcome{h: metrics.NewHistogram(), pr: pr}
	var wg sync.WaitGroup
	var dialErr error
	var dialMu sync.Mutex
	sent := make([]int, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cli, err := core.DialMDM(rr.rig.MDMAddr, rr.rig.Users[0], "self")
			if err != nil {
				dialMu.Lock()
				if dialErr == nil {
					dialErr = err
				}
				dialMu.Unlock()
				return
			}
			defer cli.Close()
			if rr.rig.Spec.Baseline {
				cli.DisableCoalescing = true
			}
			if p.Trace != nil && !*p.Trace {
				cli.Tracer = nil
			}
			d := newDrawer(rr.engine.seed, phaseIdx, c, p, rr.rig.Users)
			for i := 0; i < rounds; i++ {
				req := d.next()
				if fn := rr.engine.opts.OnRequest; fn != nil {
					fn(p.Name, c, req)
				}
				ctx := context.Background()
				cancel := func() {}
				if budget > 0 {
					ctx, cancel = context.WithTimeout(ctx, budget)
				}
				sent[c] += rr.execCore(ctx, cli, req, phaseIdx, i, o, budget)
				cancel()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if dialErr != nil {
		return nil, dialErr
	}
	for _, n := range sent {
		pr.Sent += n
	}
	fillPercentiles(pr, o.h)
	pr.ThroughputPerSec = float64(pr.InBudget) / elapsed.Seconds()
	pr.GoodputPerSec = pr.ThroughputPerSec
	pr.DurationMillis = elapsed.Milliseconds()
	return pr, nil
}

// runOpen drives an open-loop phase: Rate requests/sec for Duration,
// drawn sequentially from the phase's single deterministic stream and
// spread over Conns connections, regardless of completions.
func (rr *rigRun) runOpen(p *Phase, phaseIdx int, fast bool) (*PhaseReport, error) {
	rate, err := rr.engine.resolveRate(p.Rate)
	if err != nil {
		return nil, err
	}
	budget, err := rr.engine.resolveBudget(p.Budget)
	if err != nil {
		return nil, err
	}
	if budget > 0 && rr.engine.report.BudgetMillis == 0 {
		rr.engine.report.BudgetMillis = budget.Milliseconds()
	}
	stamped := p.Stamped == nil || *p.Stamped
	duration := p.window(fast)
	conns := p.Conns
	if conns <= 0 {
		conns = 1
	}
	if fast && conns > 8 {
		conns = 8
	}
	n := int(rate * duration.Seconds())
	if n < 1 {
		n = 1
	}
	interval := duration / time.Duration(n)

	pr := &PhaseReport{Name: p.Name, Rig: p.Rig, Kind: "open", Sent: n}
	o := &phaseOutcome{h: metrics.NewHistogram(), pr: pr}
	d := newDrawer(rr.engine.seed, phaseIdx, -1, p, rr.rig.Users)

	// Pre-dial so dial latency does not eat into the send schedule.
	needCore := false
	for _, m := range p.Mix {
		needCore = needCore || m.Verb == VerbReachMe
	}
	for c := 0; c < conns; c++ {
		if _, err := rr.dir(c); err != nil {
			return nil, err
		}
		if needCore {
			if _, err := rr.coreCli(c); err != nil {
				return nil, err
			}
		}
	}

	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			time.Sleep(d)
		}
		req := d.next()
		if fn := rr.engine.opts.OnRequest; fn != nil {
			fn(p.Name, -1, req)
		}
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			ctx := context.Background()
			var cancel context.CancelFunc
			if stamped && budget > 0 {
				ctx, cancel = context.WithTimeout(ctx, budget)
			} else {
				ctx, cancel = context.WithTimeout(ctx, liveness)
			}
			defer cancel()
			rr.execOpen(ctx, req, phaseIdx, i, o, budget)
		}(i, req)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if pr.InBudget+pr.Shed+pr.Expired == 0 && o.firstErr != nil {
		return nil, fmt.Errorf("open-loop phase produced only errors: %w", o.firstErr)
	}
	fillPercentiles(pr, o.h)
	pr.ThroughputPerSec = float64(pr.InBudget) / elapsed.Seconds()
	pr.GoodputPerSec = float64(pr.InBudget) / duration.Seconds()
	pr.DurationMillis = elapsed.Milliseconds()
	return pr, nil
}

// execOpen executes one open-loop request on connection i mod conns.
func (rr *rigRun) execOpen(ctx context.Context, req Request, phaseIdx, i int, o *phaseOutcome, budget time.Duration) {
	switch req.Verb {
	case VerbRegister:
		rr.execRegister(ctx, req, phaseIdx, i, rr.dirIdx(i), o, budget)
	case VerbResolve:
		d, err := rr.dir(rr.dirIdx(i))
		if err != nil {
			o.classify(err, 0, budget)
			return
		}
		t0 := time.Now()
		err = resolveVia(ctx, d, req.User, rr.pathFor(req, i), req.Pattern)
		o.classify(err, time.Since(t0), budget)
	case VerbReachMe:
		cli, err := rr.coreCli(i % len(rr.coreClis))
		if err != nil {
			o.classify(err, 0, budget)
			return
		}
		t0 := time.Now()
		err = reachMe(ctx, cli, req.User)
		o.classify(err, time.Since(t0), budget)
	default:
		rr.execStore(ctx, req, i, o, budget)
	}
}

// fillPercentiles copies the in-budget latency distribution into the
// report row.
func fillPercentiles(pr *PhaseReport, h *metrics.Histogram) {
	pr.P50Micros = h.Percentile(50).Microseconds()
	pr.P95Micros = h.Percentile(95).Microseconds()
	pr.P99Micros = h.Percentile(99).Microseconds()
}
