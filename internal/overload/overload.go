// Package overload implements the admission controller in front of the
// resolve fabric's servers (ISSUE 5; paper §5.3's worry that the MDM is a
// Napster-style choke point). The controller enforces graceful degradation
// under load instead of collapse:
//
//   - bounded concurrency: at most MaxConcurrency requests execute at
//     once, with a reserve that only call-setup-class traffic may use,
//   - a bounded LIFO wait queue: when every slot is busy, requests wait
//     newest-first (the newest waiter has the most budget left; under
//     sustained overload FIFO serves only requests that are already
//     doomed), with overflow and queue-wait timeouts shed explicitly,
//   - expired-on-arrival shedding: a request whose propagated deadline
//     budget is below the class's observed p50 service time is refused
//     immediately, so a queue of doomed work cannot cascade downstream,
//   - a hysteretic brownout detector: sustained pressure above a
//     threshold flips the server into degraded answering (the MDM serves
//     chaining resolves from stale cache and skips recruit fan-out) and
//     recovers only after pressure stays below half the threshold.
//
// Shed requests are first-class wire errors (wire.TypeOverloaded with a
// retry-after hint) that the resilience layer treats as backoff, not
// failure — a shed never trips a circuit breaker or amplifies into a
// retry storm.
package overload

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gupster/internal/metrics"
	"gupster/internal/wire"
)

// Class is a message's admission priority.
type Class int

// The three admission classes.
const (
	// ClassControl traffic (stats, heartbeats, registrations, the coverage
	// dump a rebalance or repair reads) bypasses admission entirely:
	// operators must be able to see and heal an overloaded server, and
	// liveness leases must renew, precisely when the server is drowning.
	ClassControl Class = iota
	// ClassHigh is the call-setup path — resolves and the store fetches
	// they referral into. A slow answer here is as bad as no answer
	// (post-dial-delay budget, §2.2), so High outranks everything else
	// for slots and may use the reserved capacity.
	ClassHigh
	// ClassNormal is everything else: sync sessions, change notices,
	// subscriptions, provenance, trace queries.
	ClassNormal
)

// String names the class for errors and metrics.
func (c Class) String() string {
	switch c {
	case ClassControl:
		return "control"
	case ClassHigh:
		return "high"
	default:
		return "normal"
	}
}

// Classify maps a wire message type to its admission class.
func Classify(msgType string) Class {
	switch msgType {
	case wire.TypeStats, wire.TypeHeartbeat, wire.TypeRegister, wire.TypeUnregister, wire.TypeShardCoverage:
		return ClassControl
	case wire.TypeResolve, wire.TypeBatchResolve, wire.TypeWhoHas, wire.TypeFetch, wire.TypeExec:
		return ClassHigh
	default:
		return ClassNormal
	}
}

// ShedError is the controller refusing work; Admit turns it into the
// wire.OverloadedError the dispatcher replies with.
type ShedError struct {
	Class      Class
	RetryAfter time.Duration
	Reason     string
}

// Error implements error.
func (e *ShedError) Error() string {
	return fmt.Sprintf("overload: %s request shed: %s (retry after %s)", e.Class, e.Reason, e.RetryAfter)
}

// Config parameterizes a Controller.
type Config struct {
	// MaxConcurrency bounds concurrently executing requests; <= 0
	// disables admission control entirely (every Acquire succeeds).
	MaxConcurrency int
	// QueueDepth bounds the LIFO wait queue; default 2*MaxConcurrency.
	QueueDepth int
	// QueueWait bounds how long a request may wait for a slot (further
	// capped by the request's own remaining budget); default 1s.
	QueueWait time.Duration
	// BrownoutThreshold is the pressure level — (executing + queued) /
	// (MaxConcurrency + QueueDepth) — that, sustained for
	// BrownoutWindow, enters brownout. <= 0 disables the detector.
	BrownoutThreshold float64
	// BrownoutWindow is the hysteresis window: pressure must stay above
	// the threshold this long to enter brownout, and below half the
	// threshold this long to leave it. Default 100ms.
	BrownoutWindow time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrency <= 0 {
		return c
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.MaxConcurrency
	}
	if c.QueueWait <= 0 {
		c.QueueWait = time.Second
	}
	if c.BrownoutWindow <= 0 {
		c.BrownoutWindow = 100 * time.Millisecond
	}
	return c
}

// svcWindow tracks a class's recent service times in a small ring and
// keeps a p50 estimate readable without the controller lock.
type svcWindow struct {
	samples [128]int64 // microseconds
	n       int        // filled count, up to len(samples)
	idx     int
	since   int // records since the last p50 recompute
	p50     atomic.Int64
}

// record folds one service time in; caller holds the controller lock.
func (w *svcWindow) record(d time.Duration) {
	w.samples[w.idx] = d.Microseconds()
	w.idx = (w.idx + 1) % len(w.samples)
	if w.n < len(w.samples) {
		w.n++
	}
	w.since++
	// Recompute lazily: sorting 128 ints on every release would tax the
	// hot path for a statistic that only moves slowly.
	if w.since >= 16 || w.n < 16 {
		w.since = 0
		tmp := make([]int64, w.n)
		copy(tmp, w.samples[:w.n])
		sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
		w.p50.Store(tmp[w.n/2])
	}
}

// waiter is one queued request. The resolver (slot handoff or eviction)
// sends the outcome on ready while holding the controller lock, so a
// waiter removed from the queue always finds its verdict buffered.
type waiter struct {
	class Class
	ready chan error // nil = slot handed over; *ShedError = evicted
}

// Controller is the admission gate. The zero value and nil are both valid
// (admission disabled); build a real one with New. Safe for concurrent use.
type Controller struct {
	cfg Config
	// reserve is the number of slots only ClassHigh may occupy, so
	// background sync/notification load can never starve call setup: a
	// quarter of the slots, at least one, none when there is only one.
	reserve int
	// Stats receives every counter increment.
	Stats *metrics.OverloadStats

	mu    sync.Mutex
	inUse int
	queue []*waiter // LIFO: the top of the stack is the end of the slice
	svc   [3]svcWindow

	brown      bool
	overSince  time.Time
	underSince time.Time
}

// New builds a controller; stats may be nil (a private set is allocated).
func New(cfg Config, stats *metrics.OverloadStats) *Controller {
	if stats == nil {
		stats = &metrics.OverloadStats{}
	}
	c := &Controller{cfg: cfg.withDefaults(), Stats: stats}
	if c.cfg.MaxConcurrency > 1 {
		c.reserve = max(c.cfg.MaxConcurrency/4, 1)
	}
	return c
}

// Enabled reports whether the controller actually gates anything.
func (c *Controller) Enabled() bool {
	return c != nil && c.cfg.MaxConcurrency > 0
}

// Acquire obtains an execution slot for a request of the given class,
// waiting (bounded) in the LIFO queue when the server is full. On success
// the returned release must be called exactly once when the request
// finishes; it records the service time and hands the slot to a waiter.
// On refusal the error is a *ShedError (or the context's error).
// ClassControl and disabled controllers always succeed immediately.
func (c *Controller) Acquire(ctx context.Context, class Class) (release func(), err error) {
	if !c.Enabled() || class == ClassControl {
		return func() {}, nil
	}
	c.mu.Lock()
	now := time.Now()
	move, pressure := c.noteBrownoutLocked(now)
	if c.inUse < c.classLimitLocked(class) {
		c.inUse++
		c.mu.Unlock()
		if move != "" {
			c.logBrownout(move, pressure)
		}
		c.Stats.Admitted.Add(1)
		return c.releaseFunc(class, now), nil
	}
	if len(c.queue) >= c.cfg.QueueDepth {
		if !c.evictForLocked(class) {
			ra := c.retryAfterLocked(class)
			c.mu.Unlock()
			if move != "" {
				c.logBrownout(move, pressure)
			}
			c.countShed(class)
			return nil, &ShedError{Class: class, RetryAfter: ra, Reason: "admission queue full"}
		}
	}
	w := &waiter{class: class, ready: make(chan error, 1)}
	c.queue = append(c.queue, w)
	wait := c.queueWaitLocked(ctx, now)
	c.mu.Unlock()
	if move != "" {
		c.logBrownout(move, pressure)
	}
	c.Stats.Queued.Add(1)

	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case err := <-w.ready:
		if err != nil {
			c.countShed(class)
			return nil, err
		}
		c.Stats.Admitted.Add(1)
		return c.releaseFunc(class, time.Now()), nil
	case <-timer.C:
		if c.abandonedButAdmitted(w) {
			c.Stats.Admitted.Add(1)
			return c.releaseFunc(class, time.Now()), nil
		}
		c.Stats.QueueTimeouts.Add(1)
		c.countShed(class)
		c.mu.Lock()
		ra := c.retryAfterLocked(class)
		c.mu.Unlock()
		return nil, &ShedError{Class: class, RetryAfter: ra, Reason: "queue wait exceeded"}
	case <-ctx.Done():
		if c.abandonedButAdmitted(w) {
			// The slot arrived as the caller gave up; take it anyway —
			// the caller's own context will fail its work promptly, and
			// refusing here would leak the slot.
			c.Stats.Admitted.Add(1)
			return c.releaseFunc(class, time.Now()), nil
		}
		return nil, ctx.Err()
	}
}

// Admit is the admission step of a node's dispatcher (wire.Mux.Admit): it
// classifies the frame, refuses one whose budget cannot cover the class's
// service time, and otherwise waits for a slot. Admission runs before
// dispatch, so shedding is all-or-nothing — a shed BatchResolve is one
// overloaded frame, never a half-answered batch — and control traffic
// (stats, heartbeats, registrations) bypasses it: operators must be able to
// observe and steer an overloaded node. Every refusal is a
// *wire.OverloadedError carrying the retry-after hint; this is the only
// place a ShedError becomes one.
func (c *Controller) Admit(ctx context.Context, msgType string) (release func(), err error) {
	class := Classify(msgType)
	if ra, expired := c.ExpiredOnArrival(ctx, class); expired {
		return nil, &wire.OverloadedError{Op: msgType, RetryAfter: ra, Reason: "budget expired on arrival"}
	}
	release, err = c.Acquire(ctx, class)
	if err == nil {
		return release, nil
	}
	var shed *ShedError
	if errors.As(err, &shed) {
		return nil, &wire.OverloadedError{Op: msgType, RetryAfter: shed.RetryAfter, Reason: shed.Reason}
	}
	return nil, &wire.OverloadedError{Op: msgType, RetryAfter: c.RetryAfter(class), Reason: "request expired in admission queue"}
}

// releaseFunc builds the once-only release closure for an admitted slot.
func (c *Controller) releaseFunc(class Class, start time.Time) func() {
	var once sync.Once
	return func() {
		once.Do(func() { c.release(class, time.Since(start)) })
	}
}

// release records the service time, hands the slot to the best waiter
// (newest High first), and re-evaluates brownout.
func (c *Controller) release(class Class, d time.Duration) {
	c.mu.Lock()
	c.svc[class].record(d)
	if w := c.popWaiterLocked(); w != nil {
		w.ready <- nil // slot transferred; inUse unchanged
	} else {
		c.inUse--
	}
	move, pressure := c.noteBrownoutLocked(time.Now())
	c.mu.Unlock()
	if move != "" {
		c.logBrownout(move, pressure)
	}
}

// popWaiterLocked picks the waiter to hand a freed slot to: the newest
// High-class waiter, else the newest Normal waiter when the reserve
// allows. Caller holds the lock.
func (c *Controller) popWaiterLocked() *waiter {
	for i := len(c.queue) - 1; i >= 0; i-- {
		if c.queue[i].class == ClassHigh {
			w := c.queue[i]
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return w
		}
	}
	// Only Normal waiters: one may take the slot unless that would dip
	// into the High reserve.
	if len(c.queue) == 0 || c.inUse > c.cfg.MaxConcurrency-c.reserve {
		return nil
	}
	w := c.queue[len(c.queue)-1]
	c.queue = c.queue[:len(c.queue)-1]
	return w
}

// evictForLocked makes room in a full queue for an incoming request by
// shedding the oldest waiter of the lowest class: the oldest Normal if
// any, else — only for an incoming High request — the oldest High. It
// reports whether room was made. Caller holds the lock.
func (c *Controller) evictForLocked(incoming Class) bool {
	evict := -1
	for i, w := range c.queue { // bottom of the stack first: oldest
		if w.class == ClassNormal {
			evict = i
			break
		}
	}
	if evict < 0 {
		if incoming != ClassHigh {
			return false
		}
		evict = 0
	}
	if evict >= len(c.queue) {
		return false
	}
	w := c.queue[evict]
	c.queue = append(c.queue[:evict], c.queue[evict+1:]...)
	w.ready <- &ShedError{Class: w.class, RetryAfter: c.retryAfterLocked(w.class), Reason: "displaced by newer request"}
	return true
}

// abandonedButAdmitted resolves the race between a waiter giving up and
// the controller resolving it: it removes w from the queue if still
// present (returns false — the wait genuinely ended empty-handed), or
// consumes the buffered verdict (true when a slot was handed over, which
// the caller must then use or release).
func (c *Controller) abandonedButAdmitted(w *waiter) bool {
	c.mu.Lock()
	for i, q := range c.queue {
		if q == w {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			c.mu.Unlock()
			return false
		}
	}
	c.mu.Unlock()
	// Not queued anymore: the verdict is buffered (sent under the lock).
	return <-w.ready == nil
}

// classLimitLocked is the slot count a class may occupy; caller holds the
// lock.
func (c *Controller) classLimitLocked(class Class) int {
	if class == ClassHigh {
		return c.cfg.MaxConcurrency
	}
	return c.cfg.MaxConcurrency - c.reserve
}

// queueWaitLocked bounds a waiter's patience: the configured queue wait,
// further capped by the request's own remaining budget (waiting past the
// deadline only manufactures doomed work). Caller holds the lock.
func (c *Controller) queueWaitLocked(ctx context.Context, now time.Time) time.Duration {
	wait := c.cfg.QueueWait
	if d, ok := ctx.Deadline(); ok {
		if rem := d.Sub(now); rem < wait {
			wait = rem
		}
	}
	if wait < 0 {
		wait = 0
	}
	return wait
}

func (c *Controller) countShed(class Class) {
	if class == ClassHigh {
		c.Stats.ShedHigh.Add(1)
	} else {
		c.Stats.ShedNormal.Add(1)
	}
}

// retryAfterLocked estimates when capacity is likely: roughly the queue's
// worth of p50 service times, clamped to a sane band. Caller holds the
// lock.
func (c *Controller) retryAfterLocked(class Class) time.Duration {
	p50 := time.Duration(c.svc[class].p50.Load()) * time.Microsecond
	if p50 <= 0 {
		p50 = 50 * time.Millisecond
	}
	ra := p50 * time.Duration(len(c.queue)+1)
	if ra < 25*time.Millisecond {
		ra = 25 * time.Millisecond
	}
	if ra > 2*time.Second {
		ra = 2 * time.Second
	}
	return ra
}

// RetryAfter is the exported hint for shed replies built outside Acquire.
func (c *Controller) RetryAfter(class Class) time.Duration {
	if !c.Enabled() {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retryAfterLocked(class)
}

// ExpiredOnArrival reports whether the request's propagated budget (the
// context deadline) is already below the class's observed p50 service
// time — work that cannot finish in time and should be refused before it
// clogs the queue. A request without a deadline, or a class without
// service samples yet, is never expired. On true the shed counters are
// bumped and a retry-after hint is returned.
func (c *Controller) ExpiredOnArrival(ctx context.Context, class Class) (retryAfter time.Duration, expired bool) {
	if !c.Enabled() || class == ClassControl {
		return 0, false
	}
	d, ok := ctx.Deadline()
	if !ok {
		return 0, false
	}
	p50 := time.Duration(c.svc[class].p50.Load()) * time.Microsecond
	if p50 <= 0 || time.Until(d) >= p50 {
		return 0, false
	}
	c.Stats.BudgetExpired.Add(1)
	c.countShed(class)
	return c.RetryAfter(class), true
}

// Pressure is the instantaneous load fraction: (executing + queued) /
// (MaxConcurrency + QueueDepth).
func (c *Controller) Pressure() float64 {
	if !c.Enabled() {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pressureLocked()
}

func (c *Controller) pressureLocked() float64 {
	cap := c.cfg.MaxConcurrency + c.cfg.QueueDepth
	if cap <= 0 {
		return 0
	}
	return float64(c.inUse+len(c.queue)) / float64(cap)
}

// Brownout reports whether the detector currently calls for degraded
// answers, re-evaluating the hysteresis first (the detector is lazy: it
// advances on admission events and on this call, needing no timer
// goroutine).
func (c *Controller) Brownout() bool {
	if !c.Enabled() || c.cfg.BrownoutThreshold <= 0 {
		return false
	}
	c.mu.Lock()
	move, pressure := c.noteBrownoutLocked(time.Now())
	brown := c.brown
	c.mu.Unlock()
	if move != "" {
		c.logBrownout(move, pressure)
	}
	return brown
}

// noteBrownoutLocked advances the hysteretic detector: enter when
// pressure holds at or above the threshold for a full window, leave when
// it holds below half the threshold for a full window. Caller holds the
// lock. It returns the move it made — "brownout entered", "brownout
// exited" or "" — and the pressure that made it, for the caller to hand to
// logBrownout once the lock is released.
func (c *Controller) noteBrownoutLocked(now time.Time) (move string, pressure float64) {
	th := c.cfg.BrownoutThreshold
	if th <= 0 {
		return "", 0
	}
	p := c.pressureLocked()
	if !c.brown {
		if p >= th {
			if c.overSince.IsZero() {
				c.overSince = now
			}
			if now.Sub(c.overSince) >= c.cfg.BrownoutWindow {
				c.brown = true
				c.underSince = time.Time{}
				c.Stats.BrownoutEnters.Add(1)
				return "brownout entered", p
			}
		} else {
			c.overSince = time.Time{}
		}
		return "", 0
	}
	if p < th/2 {
		if c.underSince.IsZero() {
			c.underSince = now
		}
		if now.Sub(c.underSince) >= c.cfg.BrownoutWindow {
			c.brown = false
			c.overSince = time.Time{}
			c.Stats.BrownoutExits.Add(1)
			return "brownout exited", p
		}
	} else {
		c.underSince = time.Time{}
	}
	return "", 0
}

// logBrownout is the Info event of a move noteBrownoutLocked made.
func (c *Controller) logBrownout(move string, pressure float64) {
	slog.Info(move, "pressure", pressure, "threshold", c.cfg.BrownoutThreshold)
}

// Report copies the controller's counters and gauges into resp; a
// disabled controller reports nothing.
func (c *Controller) Report(resp *wire.StatsResponse) {
	if !c.Enabled() {
		return
	}
	st := c.Stats.Snapshot()
	resp.AdmissionAdmitted = st.Admitted
	resp.AdmissionQueued = st.Queued
	resp.ShedHigh = st.ShedHigh
	resp.ShedNormal = st.ShedNormal
	resp.QueueTimeouts = st.QueueTimeouts
	resp.BudgetExpired = st.BudgetExpired
	resp.BrownoutActive = c.Brownout()
	resp.BrownoutEnters = st.BrownoutEnters
	resp.BrownoutExits = st.BrownoutExits
	resp.BrownoutServed = st.BrownoutServed
	resp.Pressure = c.Pressure()
}

// InUse reports the executing and queued request counts (observability).
func (c *Controller) InUse() (executing, queued int) {
	if !c.Enabled() {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inUse, len(c.queue)
}
