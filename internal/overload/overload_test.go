package overload

import (
	"context"
	"errors"
	"log/slog"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gupster/internal/eventlog"
	"gupster/internal/metrics"
	"gupster/internal/wire"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		typ  string
		want Class
	}{
		{wire.TypeStats, ClassControl},
		{wire.TypeHeartbeat, ClassControl},
		{wire.TypeRegister, ClassControl},
		{wire.TypeUnregister, ClassControl},
		{wire.TypeShardCoverage, ClassControl},
		{wire.TypeResolve, ClassHigh},
		{wire.TypeBatchResolve, ClassHigh},
		{wire.TypeWhoHas, ClassHigh},
		{wire.TypeFetch, ClassHigh},
		{wire.TypeExec, ClassHigh},
		{wire.TypeUpdate, ClassNormal},
		{wire.TypeChanged, ClassNormal},
		{wire.TypeSyncStart, ClassNormal},
		{wire.TypeTraceReport, ClassNormal},
	}
	for _, c := range cases {
		if got := Classify(c.typ); got != c.want {
			t.Errorf("Classify(%q) = %v, want %v", c.typ, got, c.want)
		}
	}
}

func TestDisabledControllerAdmitsEverything(t *testing.T) {
	for _, c := range []*Controller{nil, New(Config{}, nil)} {
		release, err := c.Acquire(context.Background(), ClassHigh)
		if err != nil {
			t.Fatalf("disabled controller refused work: %v", err)
		}
		release()
		if c.Brownout() {
			t.Fatal("disabled controller reported brownout")
		}
		if _, expired := c.ExpiredOnArrival(context.Background(), ClassHigh); expired {
			t.Fatal("disabled controller expired a request")
		}
	}
}

func TestControlClassBypassesAdmission(t *testing.T) {
	c := New(Config{MaxConcurrency: 1, QueueDepth: 1}, nil)
	rel, err := c.Acquire(context.Background(), ClassHigh)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	defer rel()
	// The single slot is held, but control traffic must still pass.
	for i := 0; i < 10; i++ {
		crel, err := c.Acquire(context.Background(), ClassControl)
		if err != nil {
			t.Fatalf("control acquire %d: %v", i, err)
		}
		crel()
	}
}

func TestQueueOverflowSheds(t *testing.T) {
	c := New(Config{MaxConcurrency: 1, QueueDepth: 1, QueueWait: 5 * time.Second}, nil)
	rel, err := c.Acquire(context.Background(), ClassHigh)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	defer rel()

	// Fill the queue with one High waiter.
	queued := make(chan error, 1)
	go func() {
		r, err := c.Acquire(context.Background(), ClassHigh)
		if err == nil {
			defer r()
		}
		queued <- err
	}()
	waitForQueued(t, c, 1)

	// A Normal request cannot displace the queued High waiter: shed.
	_, err = c.Acquire(context.Background(), ClassNormal)
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("normal acquire on full queue: got %v, want *ShedError", err)
	}
	if shed.RetryAfter <= 0 {
		t.Fatalf("shed error carries no retry-after hint: %+v", shed)
	}
	if got := c.Stats.ShedNormal.Load(); got != 1 {
		t.Fatalf("ShedNormal = %d, want 1", got)
	}

	rel() // frees the slot for the queued High waiter
	if err := <-queued; err != nil {
		t.Fatalf("queued high waiter shed: %v", err)
	}
}

func TestHighDisplacesQueuedNormal(t *testing.T) {
	c := New(Config{MaxConcurrency: 1, QueueDepth: 1, QueueWait: 5 * time.Second}, nil)
	rel, err := c.Acquire(context.Background(), ClassHigh)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}

	normalErr := make(chan error, 1)
	go func() {
		r, err := c.Acquire(context.Background(), ClassNormal)
		if err == nil {
			defer r()
		}
		normalErr <- err
	}()
	waitForQueued(t, c, 1)

	highErr := make(chan error, 1)
	go func() {
		r, err := c.Acquire(context.Background(), ClassHigh)
		if err == nil {
			defer r()
		}
		highErr <- err
	}()

	// The Normal waiter is displaced by the incoming High request.
	var shed *ShedError
	if err := <-normalErr; !errors.As(err, &shed) {
		t.Fatalf("displaced normal waiter: got %v, want *ShedError", err)
	}
	rel()
	if err := <-highErr; err != nil {
		t.Fatalf("high waiter after displacement: %v", err)
	}
}

func TestQueueWaitTimeout(t *testing.T) {
	c := New(Config{MaxConcurrency: 1, QueueDepth: 4, QueueWait: 30 * time.Millisecond}, nil)
	rel, err := c.Acquire(context.Background(), ClassHigh)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	defer rel()

	start := time.Now()
	_, err = c.Acquire(context.Background(), ClassHigh)
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("queued acquire: got %v, want *ShedError", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("queue-wait timeout took %v, want ~30ms", waited)
	}
	if got := c.Stats.QueueTimeouts.Load(); got != 1 {
		t.Fatalf("QueueTimeouts = %d, want 1", got)
	}
}

func TestQueueWaitCappedByContextBudget(t *testing.T) {
	c := New(Config{MaxConcurrency: 1, QueueDepth: 4, QueueWait: 10 * time.Second}, nil)
	rel, err := c.Acquire(context.Background(), ClassHigh)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	defer rel()

	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Acquire(ctx, ClassHigh)
	if err == nil {
		t.Fatal("budget-capped acquire succeeded with the slot held")
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("budget-capped wait took %v, want ~25ms", waited)
	}
}

func TestNormalCannotUseHighReserve(t *testing.T) {
	// 4 slots, 1 reserved: Normal saturates at 3 concurrent.
	c := New(Config{MaxConcurrency: 4, QueueDepth: 1, QueueWait: 20 * time.Millisecond}, nil)
	var rels []func()
	for i := 0; i < 3; i++ {
		r, err := c.Acquire(context.Background(), ClassNormal)
		if err != nil {
			t.Fatalf("normal acquire %d: %v", i, err)
		}
		rels = append(rels, r)
	}
	// The 4th slot is the High reserve: Normal queues then times out…
	if _, err := c.Acquire(context.Background(), ClassNormal); err == nil {
		t.Fatal("normal acquire dipped into the high reserve")
	}
	// …but High sails in.
	r, err := c.Acquire(context.Background(), ClassHigh)
	if err != nil {
		t.Fatalf("high acquire into reserve: %v", err)
	}
	r()
	for _, r := range rels {
		r()
	}
}

func TestExpiredOnArrival(t *testing.T) {
	c := New(Config{MaxConcurrency: 4}, nil)
	// No samples yet: nothing can be judged doomed.
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	if _, expired := c.ExpiredOnArrival(ctx, ClassHigh); expired {
		t.Fatal("expired with no service-time samples")
	}
	// Teach the controller a ~50ms p50 for High.
	for i := 0; i < 32; i++ {
		rel, err := c.Acquire(context.Background(), ClassHigh)
		if err != nil {
			t.Fatalf("warmup acquire: %v", err)
		}
		c.release(ClassHigh, 50*time.Millisecond) // inject the duration directly
		_ = rel                                   // release already done
	}
	// Budget far above p50: admitted.
	okCtx, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	if _, expired := c.ExpiredOnArrival(okCtx, ClassHigh); expired {
		t.Fatal("request with a minute of budget judged expired")
	}
	// Budget below p50: doomed on arrival.
	doomed, cancel3 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel3()
	ra, expired := c.ExpiredOnArrival(doomed, ClassHigh)
	if !expired {
		t.Fatal("1ms budget against 50ms p50 not judged expired")
	}
	if ra <= 0 {
		t.Fatal("expired-on-arrival carries no retry-after hint")
	}
	if got := c.Stats.BudgetExpired.Load(); got != 1 {
		t.Fatalf("BudgetExpired = %d, want 1", got)
	}
	// No deadline at all: never expired.
	if _, expired := c.ExpiredOnArrival(context.Background(), ClassHigh); expired {
		t.Fatal("deadline-less request judged expired")
	}
}

func TestBrownoutHysteresis(t *testing.T) {
	c := New(Config{
		MaxConcurrency: 2, QueueDepth: 2, QueueWait: 10 * time.Millisecond,
		BrownoutThreshold: 0.5, BrownoutWindow: 20 * time.Millisecond,
	}, nil)
	if c.Brownout() {
		t.Fatal("brownout at zero pressure")
	}
	// Hold both slots: pressure 2/4 = 0.5 ≥ threshold.
	r1, _ := c.Acquire(context.Background(), ClassHigh)
	r2, _ := c.Acquire(context.Background(), ClassHigh)
	if c.Brownout() {
		t.Fatal("brownout before the window elapsed")
	}
	time.Sleep(30 * time.Millisecond)
	if !c.Brownout() {
		t.Fatal("no brownout after sustained pressure past the window")
	}
	// Release: pressure 0 < threshold/2, but exit needs the window too.
	r1()
	r2()
	if !c.Brownout() {
		t.Fatal("brownout exited before the recovery window elapsed")
	}
	time.Sleep(30 * time.Millisecond)
	if c.Brownout() {
		t.Fatal("brownout persisted after sustained recovery")
	}
	snap := c.Stats.Snapshot()
	if snap.BrownoutEnters != 1 || snap.BrownoutExits != 1 {
		t.Fatalf("brownout transitions = %d/%d, want 1/1", snap.BrownoutEnters, snap.BrownoutExits)
	}
}

func TestReleaseIsIdempotent(t *testing.T) {
	c := New(Config{MaxConcurrency: 1}, nil)
	rel, err := c.Acquire(context.Background(), ClassHigh)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	rel()
	rel() // double release must not free a phantom slot
	if ex, _ := c.InUse(); ex != 0 {
		t.Fatalf("executing = %d after release, want 0", ex)
	}
	r2, err := c.Acquire(context.Background(), ClassHigh)
	if err != nil {
		t.Fatalf("re-acquire: %v", err)
	}
	r2()
}

// TestChaosOverloadAdmissionChurn is the -race stress test of the
// admission semaphore: many goroutines churn acquire/release with mixed
// classes, cancellations, and timeouts; at the end every slot must be
// free and the books must balance.
func TestChaosOverloadAdmissionChurn(t *testing.T) {
	stats := &metrics.OverloadStats{}
	c := New(Config{
		MaxConcurrency: 3, QueueDepth: 4,
		QueueWait:         2 * time.Millisecond,
		BrownoutThreshold: 0.7, BrownoutWindow: time.Millisecond,
	}, stats)

	const workers = 32
	const iters = 200
	var admitted, refused atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				class := ClassHigh
				switch (i + j) % 3 {
				case 1:
					class = ClassNormal
				case 2:
					class = ClassControl
				}
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				if (i+j)%5 == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(j%3)*time.Millisecond)
				}
				rel, err := c.Acquire(ctx, class)
				if err == nil {
					if (i+j)%7 == 0 {
						time.Sleep(50 * time.Microsecond)
					}
					rel()
					rel() // double release must stay safe under race
					admitted.Add(1)
				} else {
					refused.Add(1)
				}
				cancel()
				_ = c.Brownout()
				_ = c.Pressure()
				_, _ = c.ExpiredOnArrival(ctx, class)
			}
		}()
	}
	wg.Wait()

	if ex, q := c.InUse(); ex != 0 || q != 0 {
		t.Fatalf("after churn: executing=%d queued=%d, want 0/0 (leaked slots)", ex, q)
	}
	if admitted.Load()+refused.Load() != workers*iters {
		t.Fatalf("bookkeeping: admitted %d + refused %d != %d", admitted.Load(), refused.Load(), workers*iters)
	}
	// Every slot freed: a fresh High burst must fill MaxConcurrency again.
	var rels []func()
	for i := 0; i < 3; i++ {
		rel, err := c.Acquire(context.Background(), ClassHigh)
		if err != nil {
			t.Fatalf("post-churn acquire %d: %v (slots leaked)", i, err)
		}
		rels = append(rels, rel)
	}
	for _, r := range rels {
		r()
	}
}

// waitForQueued spins until the controller reports n queued waiters.
func waitForQueued(t *testing.T, c *Controller, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, q := c.InUse(); q >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d waiters", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// Entering and leaving brownout are Info events carrying the pressure that
// moved the detector and its threshold.
func TestBrownoutEnteredEvent(t *testing.T) {
	events := eventlog.Install(slog.LevelInfo)
	defer events.Remove()
	c := brownedOut(t)
	defer c.release(ClassHigh, 0)
	ev, ok := events.Await(0, time.Now().Add(2*time.Second), eventlog.Is("brownout entered", "threshold", "0.5"))
	if !ok {
		t.Fatal("no brownout entered event")
	}
	if p := ev.Attrs["pressure"].Float64(); p < 0.5 {
		t.Errorf("brownout entered at pressure %v, below the threshold", p)
	}
}

func TestBrownoutExitedEvent(t *testing.T) {
	events := eventlog.Install(slog.LevelInfo)
	defer events.Remove()
	c := brownedOut(t)
	c.release(ClassHigh, 0)
	c.release(ClassHigh, 0)
	time.Sleep(30 * time.Millisecond)
	if c.Brownout() {
		t.Fatal("brownout persisted after sustained recovery")
	}
	ev, ok := events.Await(0, time.Now().Add(2*time.Second), eventlog.Is("brownout exited", "threshold", "0.5"))
	if !ok {
		t.Fatal("no brownout exited event")
	}
	if p := ev.Attrs["pressure"].Float64(); p >= 0.25 {
		t.Errorf("brownout exited at pressure %v, not below half the threshold", p)
	}
}

// brownedOut returns a controller in brownout, both its slots held by
// ClassHigh acquisitions whose release the caller owns.
func brownedOut(t *testing.T) *Controller {
	t.Helper()
	c := New(Config{
		MaxConcurrency: 2, QueueDepth: 2, QueueWait: 10 * time.Millisecond,
		BrownoutThreshold: 0.5, BrownoutWindow: 20 * time.Millisecond,
	}, nil)
	for i := 0; i < 2; i++ {
		if _, err := c.Acquire(context.Background(), ClassHigh); err != nil {
			t.Fatal(err)
		}
	}
	c.Brownout() // the detector is lazy: this starts the window
	time.Sleep(30 * time.Millisecond)
	if !c.Brownout() {
		t.Fatal("no brownout after sustained pressure past the window")
	}
	return c
}
