package core_test

// Chaos suite: resolves under injected store blackouts, latency spikes,
// and mid-stream connection drops. Every test runs the real MDM, real
// stores, and real TCP, with faults injected by faultinject proxies in
// front of the stores. Test names carry the Chaos prefix so CI can run
// them in isolation with -run Chaos.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gupster/internal/core"
	"gupster/internal/coverage"
	"gupster/internal/faultinject"
	"gupster/internal/metrics"
	"gupster/internal/resilience"
	"gupster/internal/schema"
	"gupster/internal/store"
	"gupster/internal/token"
	"gupster/internal/xpath"
)

// chaosPolicy keeps retries snappy enough for tests: a latency spike
// above 250ms counts as a down store.
func chaosPolicy() resilience.Policy {
	return resilience.Policy{
		MaxAttempts: 3,
		PerAttempt:  250 * time.Millisecond,
		BaseDelay:   5 * time.Millisecond,
		MaxDelay:    25 * time.Millisecond,
		Seed:        42,
	}
}

func chaosBreaker() resilience.BreakerConfig {
	return resilience.BreakerConfig{Threshold: 3, Cooldown: 150 * time.Millisecond}
}

// newChaosRig is newRig with the fast resilience policy on the MDM, so
// chaining and recruiting resolves fail over within test-scale budgets.
func newChaosRig(t *testing.T) *rig {
	t.Helper()
	signer := token.NewSigner(key)
	m := core.New(core.Config{
		Schema:   schema.GUP(),
		Signer:   signer,
		GrantTTL: time.Minute,
		Retry:    chaosPolicy(),
		Breaker:  chaosBreaker(),
	})
	srv := core.NewServer(m)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("MDM start: %v", err)
	}
	r := &rig{t: t, mdm: m, server: srv, stores: map[string]*store.Server{}, signer: signer}
	t.Cleanup(func() {
		m.Close()
		srv.Close()
		for _, s := range r.stores {
			s.Close()
		}
	})
	return r
}

// addProxiedStore starts a store and a fault-injection proxy in front of
// it. Coverage must be registered against the proxy address (registerVia)
// for the faults to sit on the query path.
func (r *rig) addProxiedStore(id string, seed int64) *faultinject.Proxy {
	r.t.Helper()
	srv := r.addStore(id)
	p, err := faultinject.NewProxy(srv.Addr(), seed)
	if err != nil {
		r.t.Fatalf("proxy for %s: %v", id, err)
	}
	r.t.Cleanup(func() { p.Close() })
	return p
}

// registerVia announces coverage reachable at an explicit address — the
// fault proxy's — instead of the store's own listener.
func (r *rig) registerVia(id, addr, path string) {
	r.t.Helper()
	if err := r.mdm.Register(coverage.StoreID(id), addr, xpath.MustParse(path)); err != nil {
		r.t.Fatalf("register %s via %s: %v", id, addr, err)
	}
}

// chaosClient returns a client whose resilience group uses the fast
// test policy instead of the production defaults.
func (r *rig) chaosClient(identity, role string) *core.Client {
	r.t.Helper()
	c := r.client(identity, role)
	c.Resilience = resilience.NewGroup(chaosPolicy(), chaosBreaker(), nil)
	return c
}

const presencePath = "/user[@id='arnaud']/presence"

// replicatedPresence wires two stores — both behind fault proxies — that
// redundantly cover the presence component. Store IDs are chosen so the
// deterministic alternative order (sorted by store ID) tries a first.
func replicatedPresence(t *testing.T) (*rig, *faultinject.Proxy, *faultinject.Proxy) {
	r := newChaosRig(t)
	pa := r.addProxiedStore("a.gup.spcs.com", 1)
	pb := r.addProxiedStore("b.gup.vzw.com", 2)
	r.registerVia("a.gup.spcs.com", pa.Addr(), presencePath)
	r.registerVia("b.gup.vzw.com", pb.Addr(), presencePath)
	r.seed("a.gup.spcs.com", "arnaud", presencePath, `<presence status="available"/>`)
	r.seed("b.gup.vzw.com", "arnaud", presencePath, `<presence status="available"/>`)
	return r, pa, pb
}

func wantPresence(t *testing.T, doc interface{ String() string }, i int) {
	t.Helper()
	if doc == nil || !strings.Contains(doc.String(), `status="available"`) {
		t.Fatalf("resolve %d: wrong answer %v", i, doc)
	}
}

// TestChaosBlackoutFallback is the acceptance scenario: one of two
// replicated stores blacks out mid-run and every referral resolve still
// succeeds by falling back to the surviving replica, with the breaker
// trip and retry counters visible in the metrics snapshot.
func TestChaosBlackoutFallback(t *testing.T) {
	r, pa, _ := replicatedPresence(t)
	cli := r.chaosClient("arnaud", "self")
	// Pin the MDM's alternative order (store a first) so the resolves keep
	// hitting the blacked-out replica and exercise the breaker, instead of
	// the latency router quietly steering around it.
	cli.DisableLatencyRouting = true

	hist := metrics.NewHistogram()
	const total, blackoutAt = 60, 20
	for i := 0; i < total; i++ {
		if i == blackoutAt {
			pa.Blackout(true)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		start := time.Now()
		doc, err := cli.Get(ctx, presencePath)
		cancel()
		if err != nil {
			t.Fatalf("resolve %d failed during blackout window: %v", i, err)
		}
		hist.Record(time.Since(start))
		wantPresence(t, doc, i)
	}

	stats := cli.Resilience.Stats
	if stats.Retries.Load() == 0 {
		t.Error("no retries recorded across the blackout")
	}
	if stats.BreakerTrips.Load() == 0 {
		t.Error("the blacked-out store never tripped its breaker")
	}
	if stats.Fallbacks.Load() == 0 {
		t.Error("no fallback to the surviving replica recorded")
	}

	if st := cli.Resilience.State(pa.Addr()); st == resilience.Closed {
		t.Errorf("breaker for blacked-out store reports %s", st)
	}
	t.Logf("blackout run: %d resolves, 0 failed; latency %s", total, hist.Summary())
	t.Logf("counters: attempts=%d retries=%d trips=%d short_circuits=%d fallbacks=%d",
		stats.Attempts.Load(), stats.Retries.Load(), stats.BreakerTrips.Load(), stats.ShortCircuits.Load(), stats.Fallbacks.Load())
}

// TestChaosLatencySpikeChaining spikes one replica's latency above the
// MDM's per-attempt timeout; chaining resolves must time out, fail over
// to the healthy replica, and stay within the overall context budget.
func TestChaosLatencySpikeChaining(t *testing.T) {
	r, pa, _ := replicatedPresence(t)
	pa.SetLatency(400*time.Millisecond, 0) // > PerAttempt (250ms)
	cli := r.client("arnaud", "self")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	doc, err := cli.GetVia(ctx, presencePath, "chaining")
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("chaining resolve under latency spike: %v", err)
	}
	wantPresence(t, doc, 0)
	// Bounded latency: one timed-out attempt on the slow replica plus the
	// fallback, never the full 5s budget.
	if elapsed > 2500*time.Millisecond {
		t.Errorf("chaining resolve took %v, want < 2.5s", elapsed)
	}
	rs := r.mdm.Resilience().Stats
	if rs.Failures.Load() == 0 {
		t.Error("MDM recorded no failed attempts against the slow replica")
	}
	if rs.Fallbacks.Load() == 0 {
		t.Error("MDM recorded no fallback to the healthy replica")
	}
	t.Logf("latency spike: chaining resolve in %v (fallback after timeout)", elapsed)
}

// TestChaosBlackoutRecruiting blacks out the replica the recruiting
// pattern would migrate to first; the MDM must recruit the surviving
// replica instead.
func TestChaosBlackoutRecruiting(t *testing.T) {
	r, pa, _ := replicatedPresence(t)
	pa.Blackout(true)
	cli := r.client("arnaud", "self")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	doc, err := cli.GetVia(ctx, presencePath, "recruiting")
	if err != nil {
		t.Fatalf("recruiting resolve with primary blacked out: %v", err)
	}
	wantPresence(t, doc, 0)
	if r.mdm.Resilience().Stats.Retries.Load() == 0 {
		t.Error("MDM recorded no retries against the blacked-out primary")
	}
}

// TestChaosMidStreamDrop severs a bulk transfer partway through; the
// client's retry must redial and complete once the network recovers.
func TestChaosMidStreamDrop(t *testing.T) {
	r := newChaosRig(t)
	p := r.addProxiedStore("a.gup.spcs.com", 7)
	appsPath := "/user[@id='arnaud']/applications"
	r.registerVia("a.gup.spcs.com", p.Addr(), appsPath)
	// A bulky component (applications is an open subtree) so the throttled
	// transfer is mid-stream when cut.
	var sb strings.Builder
	sb.WriteString(`<applications><gaming>`)
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&sb, `<score game="quake-%04d" points="123456789" rank="challenger"/>`, i)
	}
	sb.WriteString(`</gaming></applications>`)
	r.seed("a.gup.spcs.com", "arnaud", appsPath, sb.String())

	cli := r.chaosClient("arnaud", "self")
	// Slow this test's attempts down so the drop lands mid-transfer, not
	// after a per-attempt timeout.
	cli.Resilience.Policy.PerAttempt = 5 * time.Second

	// Warm resolve so only the bulk fetch is in flight when we cut.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if _, err := cli.Get(ctx, appsPath); err != nil {
		t.Fatalf("warm resolve: %v", err)
	}

	p.SetBandwidth(64 << 10) // ≈ 64 KiB/s: the ~180KB body takes seconds
	go func() {
		time.Sleep(300 * time.Millisecond) // well into the throttled body
		p.DropActive()
		p.SetBandwidth(0) // recovery: full speed for the retry
	}()
	start := time.Now()
	doc, err := cli.Get(ctx, appsPath)
	if err != nil {
		t.Fatalf("resolve across mid-stream drop: %v", err)
	}
	if n := len(doc.String()); n < 100<<10 {
		t.Errorf("retried fetch returned %d bytes, want the full component", n)
	}
	if cli.Resilience.Stats.Retries.Load() == 0 {
		t.Error("no retry recorded for the severed transfer")
	}
	t.Logf("mid-stream drop: full component re-fetched in %v after sever", time.Since(start))
}

// TestChaosGoroutineLeak runs resolves across blackout flips and checks
// the process settles back to its starting goroutine count: no pump,
// readLoop, or retry goroutine may outlive its connection.
func TestChaosGoroutineLeak(t *testing.T) {
	r, pa, _ := replicatedPresence(t)

	before := runtime.NumGoroutine()
	func() {
		cli := r.chaosClient("arnaud", "self")
		defer cli.Close()
		for i := 0; i < 30; i++ {
			switch i {
			case 10:
				pa.Blackout(true)
			case 20:
				pa.Blackout(false)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_, err := cli.Get(ctx, presencePath)
			cancel()
			if err != nil {
				t.Fatalf("resolve %d: %v", i, err)
			}
		}
	}()

	// Settle: closed connections unwind their goroutines asynchronously.
	deadline := time.Now().Add(3 * time.Second)
	slack := before + 8
	for runtime.NumGoroutine() > slack && time.Now().Before(deadline) {
		time.Sleep(25 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > slack {
		buf := make([]byte, 1<<20)
		t.Errorf("goroutines: %d before, %d after (slack %d)\n%s",
			before, after, slack-before, buf[:runtime.Stack(buf, true)])
	}
}

// TestChaosConcurrentStress hammers one MDM from 64 goroutines while a
// flipper toggles a blackout on one replica every 10ms. The second
// replica stays healthy throughout, so with fallback routing not a
// single resolve may fail. Run under -race this also guards the shared
// breaker and latency-router state.
func TestChaosConcurrentStress(t *testing.T) {
	r, pa, _ := replicatedPresence(t)
	cli := r.chaosClient("arnaud", "self")

	stop := make(chan struct{})
	var flips sync.WaitGroup
	flips.Add(1)
	go func() {
		defer flips.Done()
		on := false
		for {
			select {
			case <-stop:
				pa.Blackout(false)
				return
			case <-time.After(10 * time.Millisecond):
				on = !on
				pa.Blackout(on)
			}
		}
	}()

	const workers, perWorker = 64, 25
	var failed atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < perWorker; n++ {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				doc, err := cli.Get(ctx, presencePath)
				cancel()
				if err != nil {
					failed.Add(1)
					t.Errorf("resolve failed under flapping store: %v", err)
					return
				}
				if !strings.Contains(doc.String(), `status="available"`) {
					failed.Add(1)
					t.Errorf("wrong answer under chaos: %s", doc)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	flips.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d of %d resolves failed", failed.Load(), workers*perWorker)
	}
	s := cli.Resilience.Stats
	t.Logf("stress: %d resolves, 0 failed; attempts=%d retries=%d trips=%d probes=%d resets=%d short_circuits=%d fallbacks=%d",
		workers*perWorker, s.Attempts.Load(), s.Retries.Load(), s.BreakerTrips.Load(),
		s.BreakerProbes.Load(), s.BreakerResets.Load(), s.ShortCircuits.Load(), s.Fallbacks.Load())
}
