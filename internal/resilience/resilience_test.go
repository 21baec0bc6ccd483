package resilience

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gupster/internal/metrics"
	"gupster/internal/wire"
)

var errBoom = errors.New("boom")

func fastGroup(stats *metrics.ResilienceStats) *Group {
	return NewGroup(
		Policy{MaxAttempts: 3, PerAttempt: 100 * time.Millisecond, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		BreakerConfig{Threshold: 3, Cooldown: 50 * time.Millisecond},
		stats,
	)
}

func TestDoRetriesTransientThenSucceeds(t *testing.T) {
	var stats metrics.ResilienceStats
	g := fastGroup(&stats)
	calls := 0
	err := g.Do(context.Background(), "ep", func(context.Context) error {
		calls++
		if calls < 3 {
			return errBoom
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	if got := stats.Retries.Load(); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
	if st := g.State("ep"); st != Closed {
		t.Errorf("state after success = %v, want closed", st)
	}
}

func TestDoStopsOnRemoteError(t *testing.T) {
	g := fastGroup(nil)
	calls := 0
	want := &wire.RemoteError{Op: "fetch", Msg: "denied"}
	err := g.Do(context.Background(), "ep", func(context.Context) error {
		calls++
		return want
	})
	if !errors.Is(err, want) && err != want {
		t.Fatalf("Do = %v, want the remote error", err)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (application errors are final)", calls)
	}
	// Application errors must not feed the breaker.
	if st := g.State("ep"); st != Closed {
		t.Errorf("state = %v, want closed", st)
	}
}

func TestBreakerTripShortCircuitAndRecover(t *testing.T) {
	var stats metrics.ResilienceStats
	g := fastGroup(&stats)
	alwaysFail := func(context.Context) error { return errBoom }

	// One Do (3 attempts at threshold 3) trips the breaker.
	if err := g.Do(context.Background(), "ep", alwaysFail); err == nil {
		t.Fatal("Do succeeded against a failing endpoint")
	}
	if st := g.State("ep"); st != Open {
		t.Fatalf("state after %d failures = %v, want open", stats.Failures.Load(), st)
	}
	if stats.BreakerTrips.Load() == 0 {
		t.Error("no breaker trip recorded")
	}

	// While open, calls short-circuit without touching the endpoint.
	calls := 0
	err := g.Do(context.Background(), "ep", func(context.Context) error { calls++; return nil })
	if !errors.Is(err, ErrOpenCircuit) {
		t.Fatalf("Do during cooldown = %v, want ErrOpenCircuit", err)
	}
	if calls != 0 {
		t.Errorf("endpoint touched %d times through an open breaker", calls)
	}
	if stats.ShortCircuits.Load() == 0 {
		t.Error("no short-circuit recorded")
	}
	if g.Available("ep") {
		t.Error("endpoint reported available during cooldown")
	}

	// After the cooldown, a successful probe closes the breaker.
	time.Sleep(60 * time.Millisecond)
	if !g.Available("ep") {
		t.Error("endpoint not available after cooldown")
	}
	if err := g.Do(context.Background(), "ep", func(context.Context) error { return nil }); err != nil {
		t.Fatalf("probe Do: %v", err)
	}
	if st := g.State("ep"); st != Closed {
		t.Errorf("state after probe = %v, want closed", st)
	}
	if stats.BreakerProbes.Load() == 0 || stats.BreakerResets.Load() == 0 {
		t.Errorf("probe/reset not recorded: probes=%d resets=%d",
			stats.BreakerProbes.Load(), stats.BreakerResets.Load())
	}
}

func TestHalfOpenAdmitsSingleProbe(t *testing.T) {
	b := newBreaker(BreakerConfig{Threshold: 1, Cooldown: 10 * time.Millisecond}, &metrics.ResilienceStats{})
	b.Failure()
	if b.State() != Open {
		t.Fatalf("state = %v, want open", b.State())
	}
	time.Sleep(15 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("probe refused after cooldown")
	}
	if b.Allow() {
		t.Fatal("second caller admitted while probe in flight")
	}
	// A failed probe re-opens; a fresh cooldown is required.
	b.Failure()
	if b.State() != Open || b.Allow() {
		t.Fatal("failed probe did not re-open the breaker")
	}
}

func TestDoRespectsContextBudget(t *testing.T) {
	g := NewGroup(
		Policy{MaxAttempts: 10, PerAttempt: time.Second, BaseDelay: 30 * time.Millisecond, MaxDelay: 30 * time.Millisecond},
		BreakerConfig{Threshold: 100},
		nil,
	)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := g.Do(ctx, "ep", func(context.Context) error { return errBoom })
	if err == nil {
		t.Fatal("Do succeeded")
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Errorf("Do ran %v past a 50ms budget", el)
	}
}

func TestDoPerAttemptTimeout(t *testing.T) {
	g := NewGroup(
		Policy{MaxAttempts: 2, PerAttempt: 20 * time.Millisecond, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
		BreakerConfig{Threshold: 100},
		nil,
	)
	calls := 0
	start := time.Now()
	err := g.Do(context.Background(), "ep", func(actx context.Context) error {
		calls++
		<-actx.Done() // a hung endpoint: only the attempt timeout frees us
		return actx.Err()
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Do = %v, want deadline exceeded", err)
	}
	if calls != 2 {
		t.Errorf("calls = %d, want 2", calls)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("two 20ms attempts took %v", el)
	}
}

func TestBackoffCappedAndJittered(t *testing.T) {
	g := NewGroup(Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Multiplier: 2, Jitter: 0.5}, BreakerConfig{}, nil)
	for retry := 0; retry < 10; retry++ {
		d := g.Backoff(retry)
		if d > 80*time.Millisecond {
			t.Errorf("backoff(%d) = %v exceeds cap", retry, d)
		}
		if d < 0 {
			t.Errorf("backoff(%d) = %v negative", retry, d)
		}
	}
	// Deep retries must still wait at least half the cap (jitter 0.5).
	if d := g.Backoff(9); d < 40*time.Millisecond {
		t.Errorf("backoff(9) = %v, want ≥ 40ms", d)
	}
}

// TestGroupConcurrent hammers one group from many goroutines while the
// endpoint flips between healthy and failing; run under -race it guards
// the breaker/retry state against data races.
func TestGroupConcurrent(t *testing.T) {
	g := NewGroup(
		Policy{MaxAttempts: 2, PerAttempt: 50 * time.Millisecond, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond},
		BreakerConfig{Threshold: 3, Cooldown: time.Millisecond},
		nil,
	)
	var healthy atomic.Bool
	healthy.Store(true)
	stop := make(chan struct{})
	var flip sync.WaitGroup
	flip.Add(1)
	go func() {
		defer flip.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				healthy.Store(!healthy.Load())
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep := []string{"a", "b"}[i%2]
			for n := 0; n < 200; n++ {
				_ = g.Do(context.Background(), ep, func(context.Context) error {
					if healthy.Load() {
						return nil
					}
					return errBoom
				})
				_ = g.Available(ep)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	flip.Wait()

	snap := g.Snapshot()
	if snap.Attempts == 0 {
		t.Error("no attempts recorded")
	}
	if len(snap.Breakers) != 2 {
		t.Errorf("breakers in snapshot = %d, want 2", len(snap.Breakers))
	}
}

func TestSnapshotReportsBreakers(t *testing.T) {
	g := fastGroup(nil)
	_ = g.Do(context.Background(), "store-1:9999", func(context.Context) error { return errBoom })
	snap := g.Snapshot()
	if snap.Retries == 0 {
		t.Error("snapshot reports no retries")
	}
	if len(snap.Breakers) != 1 || snap.Breakers[0].Endpoint != "store-1:9999" || snap.Breakers[0].State != "open" {
		t.Errorf("snapshot breakers = %+v, want store-1:9999 open", snap.Breakers)
	}
}

// An attempt that dies because the CALLER's context expired says nothing
// about the endpoint, and must not feed its breaker: a burst of
// tight-budget callers against a healthy-but-queued endpoint would
// otherwise trip it and turn their own expiry into an outage for
// everyone arriving after the budgets clear.
func TestCallerExpiryDoesNotFeedBreaker(t *testing.T) {
	g := NewGroup(
		Policy{MaxAttempts: 1, PerAttempt: time.Second},
		BreakerConfig{Threshold: 2, Cooldown: time.Minute},
		nil,
	)
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		err := g.Do(ctx, "ep", func(actx context.Context) error {
			<-actx.Done() // endpoint alive but slower than the caller's budget
			return actx.Err()
		})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Do = %v, want the caller's deadline", err)
		}
	}
	if st := g.State("ep"); st != Closed {
		t.Fatalf("breaker state after caller-budget expiries = %v, want closed", st)
	}
	// A genuine endpoint failure under a live caller context still counts.
	for i := 0; i < 2; i++ {
		_ = g.Do(context.Background(), "ep", func(context.Context) error { return errBoom })
	}
	if st := g.State("ep"); st != Open {
		t.Fatalf("breaker state after real failures = %v, want open", st)
	}
}
