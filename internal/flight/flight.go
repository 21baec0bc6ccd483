// Package flight provides the two concurrency primitives of the resolve
// pipeline the MDM must scale with (paper §4: the meta-data manager stays a
// cheap lookup tier only if many small resolves stay cheap under load):
//
//   - Group — in-flight request coalescing ("singleflight"): N identical
//     concurrent calls share one execution, so a hot key costs one upstream
//     round trip instead of N. The leader's outcome — including resilience
//     failures such as a circuit-breaker trip — propagates to every
//     follower without re-running the attempt, so breakers and retry
//     counters see each flight exactly once.
//
//   - ForEach — bounded parallel fan-out: run n items on at most `workers`
//     goroutines, replacing the serial alternative-by-alternative and
//     peer-by-peer loops in chaining and recruiting.
//
// Both are deliberately dependency-free; counters live in
// internal/metrics.PipelineStats so the pipeline is observable end to end.
package flight

import (
	"context"
	"sync"

	"gupster/internal/metrics"
)

// call is one in-flight execution and the result its followers share.
type call struct {
	done chan struct{}
	val  any
	err  error
}

// Group coalesces concurrent calls by key. The zero value is not usable;
// call NewGroup. Safe for concurrent use.
type Group struct {
	stats *metrics.PipelineStats

	mu    sync.Mutex
	calls map[string]*call
}

// NewGroup builds a group; a nil stats allocates a private counter set.
func NewGroup(stats *metrics.PipelineStats) *Group {
	if stats == nil {
		stats = &metrics.PipelineStats{}
	}
	return &Group{stats: stats, calls: make(map[string]*call)}
}

// Stats exposes the group's counters.
func (g *Group) Stats() *metrics.PipelineStats { return g.stats }

// Do executes fn once per key among concurrent callers: the first caller
// (the leader) runs fn; callers that arrive while the flight is up block
// and share its result. shared reports whether the result came from
// another caller's flight. A follower whose ctx ends while waiting
// returns ctx.Err() without affecting the flight.
//
// The leader's error — a store failure, an open circuit breaker — is
// delivered verbatim to every follower: the breaker saw one attempt, the
// followers see its verdict, and no failure counter is inflated.
func (g *Group) Do(ctx context.Context, key string, fn func() (any, error)) (v any, shared bool, err error) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		g.stats.CoalesceHits.Add(1)
		select {
		case <-c.done:
			return c.val, true, c.err
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
	c := &call{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	g.stats.Flights.Add(1)
	c.val, c.err = fn()

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, false, c.err
}

// DefaultWorkers bounds a fan-out when the caller does not choose a width.
const DefaultWorkers = 8

// ForEach runs fn(i) for i in [0, n) on at most workers goroutines
// (workers <= 0 means DefaultWorkers), waits for all of them, and returns
// the error of the lowest-indexed failure — the same error a serial loop
// would have surfaced first. A cancelled ctx stops dispatching further
// items; already-dispatched items run to completion so partial work is
// never abandoned mid-call.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	if workers <= 0 {
		workers = DefaultWorkers
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstIdx = n
		firstErr error
	)
	sem := make(chan struct{}, workers)
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			if err := fn(i); err != nil {
				mu.Lock()
				if i < firstIdx {
					firstIdx, firstErr = i, err
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
