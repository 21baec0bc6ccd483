package flight

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gupster/internal/metrics"
)

// TestDoCoalesces proves the core contract: callers that arrive while a
// flight is up share one execution and one result.
func TestDoCoalesces(t *testing.T) {
	g := NewGroup(nil)
	var execs atomic.Int64
	gate := make(chan struct{})

	const followers = 50
	var wg sync.WaitGroup
	results := make([]any, followers+1)
	errs := make([]error, followers+1)
	shareds := make([]bool, followers+1)

	// Leader: blocks inside fn until the gate opens.
	started := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], shareds[0], errs[0] = g.Do(context.Background(), "k", func() (any, error) {
			close(started)
			execs.Add(1)
			<-gate
			return "payload", nil
		})
	}()
	<-started

	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], shareds[i], errs[i] = g.Do(context.Background(), "k", func() (any, error) {
				execs.Add(1)
				return "should not run", nil
			})
		}(i)
	}
	// Wait until every follower is parked on the flight.
	for deadline := time.Now().Add(2 * time.Second); ; {
		if g.Stats().CoalesceHits.Load() == followers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("followers never coalesced: hits=%d", g.Stats().CoalesceHits.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Fatalf("fn executed %d times, want 1", got)
	}
	for i, r := range results {
		if errs[i] != nil || r != "payload" {
			t.Fatalf("caller %d: got (%v, %v)", i, r, errs[i])
		}
	}
	if shareds[0] {
		t.Fatal("leader reported shared")
	}
	for i := 1; i <= followers; i++ {
		if !shareds[i] {
			t.Fatalf("follower %d not marked shared", i)
		}
	}
	if f := g.Stats().Flights.Load(); f != 1 {
		t.Fatalf("Flights = %d, want 1", f)
	}
}

// TestDoErrorPropagates delivers the leader's error to every follower.
func TestDoErrorPropagates(t *testing.T) {
	g := NewGroup(nil)
	boom := errors.New("breaker open")
	gate := make(chan struct{})
	started := make(chan struct{})

	var wg sync.WaitGroup
	errCount := atomic.Int64{}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := g.Do(context.Background(), "k", func() (any, error) {
			close(started)
			<-gate
			return nil, boom
		})
		if errors.Is(err, boom) {
			errCount.Add(1)
		}
	}()
	<-started
	const followers = 10
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, shared, err := g.Do(context.Background(), "k", func() (any, error) { return nil, nil })
			if shared && errors.Is(err, boom) {
				errCount.Add(1)
			}
		}()
	}
	for deadline := time.Now().Add(2 * time.Second); g.Stats().CoalesceHits.Load() != followers; {
		if time.Now().After(deadline) {
			t.Fatal("followers never coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if got := errCount.Load(); got != followers+1 {
		t.Fatalf("%d callers saw the leader's error, want %d", got, followers+1)
	}
}

// TestDoFollowerContext: a follower whose context ends while parked
// returns promptly without disturbing the flight.
func TestDoFollowerContext(t *testing.T) {
	g := NewGroup(nil)
	gate := make(chan struct{})
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, _, err := g.Do(context.Background(), "k", func() (any, error) {
			close(started)
			<-gate
			return "v", nil
		})
		done <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	followerDone := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, "k", func() (any, error) { return nil, nil })
		followerDone <- err
	}()
	for deadline := time.Now().Add(2 * time.Second); g.Stats().CoalesceHits.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("follower never parked")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-followerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("follower error = %v, want context.Canceled", err)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("leader error = %v", err)
	}
}

// TestDoSequentialCallsDoNotCoalesce: flights are only shared while up.
func TestDoSequentialCallsDoNotCoalesce(t *testing.T) {
	g := NewGroup(nil)
	for i := 0; i < 3; i++ {
		v, shared, err := g.Do(context.Background(), "k", func() (any, error) { return i, nil })
		if err != nil || shared || v != i {
			t.Fatalf("call %d: (%v, shared=%v, %v)", i, v, shared, err)
		}
	}
	if f, h := g.Stats().Flights.Load(), g.Stats().CoalesceHits.Load(); f != 3 || h != 0 {
		t.Fatalf("flights=%d hits=%d, want 3/0", f, h)
	}
}

// TestForEachRunsAll covers widths below, at, and above the item count.
func TestForEachRunsAll(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 100} {
		var ran atomic.Int64
		err := ForEach(context.Background(), 25, workers, func(i int) error {
			ran.Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := ran.Load(); got != 25 {
			t.Fatalf("workers=%d: ran %d of 25", workers, got)
		}
	}
}

// TestForEachBoundsConcurrency: never more than `workers` in flight.
func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 4
	var cur, peak atomic.Int64
	err := ForEach(context.Background(), 64, workers, func(i int) error {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent calls, bound is %d", p, workers)
	}
}

// TestForEachFirstError returns the lowest-indexed failure, like the
// serial loop it replaces.
func TestForEachFirstError(t *testing.T) {
	err := ForEach(context.Background(), 10, 3, func(i int) error {
		if i == 2 || i == 7 {
			return fmt.Errorf("item %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "item 2" {
		t.Fatalf("err = %v, want item 2", err)
	}
}

// TestForEachCancelledContext stops dispatching once ctx ends.
func TestForEachCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := ForEach(ctx, 100, 1, func(i int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if got := ran.Load(); got != 0 {
		t.Fatalf("%d items ran after cancellation", got)
	}
}

// TestGroupSharedStats: two groups can feed one PipelineStats (MDM and
// its batch handler share a counter set).
func TestGroupSharedStats(t *testing.T) {
	stats := &metrics.PipelineStats{}
	a, b := NewGroup(stats), NewGroup(stats)
	a.Do(context.Background(), "x", func() (any, error) { return nil, nil })
	b.Do(context.Background(), "y", func() (any, error) { return nil, nil })
	if got := stats.Flights.Load(); got != 2 {
		t.Fatalf("shared Flights = %d, want 2", got)
	}
	if hits := stats.CoalesceHits.Load(); hits != 0 {
		t.Fatalf("shared CoalesceHits = %d, want 0", hits)
	}
}
