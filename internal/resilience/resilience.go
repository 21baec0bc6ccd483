// Package resilience hardens the distributed query paths (referral,
// chaining, recruiting — §5.2) against data stores that fail, stall, and
// recover independently. It provides the three mechanisms threaded
// through the client, MDM, and federation layers:
//
//   - bounded retries with capped exponential backoff and deterministic
//     jitter, each attempt under its own timeout while the caller's
//     context bounds the overall budget,
//   - a per-endpoint circuit breaker (closed → open → half-open) that
//     trips after consecutive transient failures and half-opens on a
//     single probe after a cooldown, so persistently dead stores stop
//     consuming the retry budget,
//   - error classification: remote application errors (denials, spurious
//     queries) are final — retrying them cannot help — while connection
//     and timeout failures are transient.
//
// Breaker states and retry counters are exported through
// internal/metrics so degradation is observable.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"gupster/internal/metrics"
	"gupster/internal/wire"
)

// ErrOpenCircuit is returned without attempting a call when the
// endpoint's breaker refuses traffic.
var ErrOpenCircuit = errors.New("resilience: circuit open")

// Policy bounds the retry loop. The zero value means defaults.
type Policy struct {
	// MaxAttempts is the total number of tries per call; default 3.
	MaxAttempts int
	// PerAttempt bounds each individual try; default 2s. The caller's
	// context deadline bounds the whole call.
	PerAttempt time.Duration
	// BaseDelay is the backoff before the first retry; default 10ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff; default 500ms.
	MaxDelay time.Duration
	// Multiplier grows the delay between retries; default 2.
	Multiplier float64
	// Jitter is the fraction of each delay that is randomized away
	// (0..1); default 0.5. Jitter decorrelates retry storms from clients
	// that failed together.
	Jitter float64
	// Seed makes the jitter sequence deterministic; default 1.
	Seed int64
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.PerAttempt <= 0 {
		p.PerAttempt = 2 * time.Second
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 500 * time.Millisecond
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Jitter <= 0 || p.Jitter > 1 {
		p.Jitter = 0.5
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// BreakerConfig parameterizes circuit breakers. The zero value means
// defaults.
type BreakerConfig struct {
	// Threshold is the consecutive-transient-failure count that trips
	// the breaker; default 3.
	Threshold int
	// Cooldown is how long an open breaker refuses traffic before
	// admitting one half-open probe; default 1s.
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	return c
}

// State is a breaker's position in the closed → open → half-open cycle.
type State int

// The three breaker states.
const (
	Closed State = iota
	Open
	HalfOpen
)

// String names the state for metrics export.
func (s State) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breaker is a per-endpoint circuit breaker. Safe for concurrent use.
type Breaker struct {
	cfg   BreakerConfig
	stats *metrics.ResilienceStats

	mu       sync.Mutex
	state    State
	failures int
	openedAt time.Time
}

func newBreaker(cfg BreakerConfig, stats *metrics.ResilienceStats) *Breaker {
	return &Breaker{cfg: cfg, stats: stats}
}

// Allow reports whether a call may proceed. An open breaker past its
// cooldown transitions to half-open and admits exactly one probe; every
// other caller is refused until the probe reports back.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if time.Since(b.openedAt) >= b.cfg.Cooldown {
			b.state = HalfOpen
			b.stats.BreakerProbes.Add(1)
			return true
		}
		return false
	default: // HalfOpen: a probe is in flight
		return false
	}
}

// Available is a non-mutating routing hint: whether a call to this
// endpoint would currently be admitted. Unlike Allow it does not consume
// the half-open probe, so it is safe for ordering alternatives.
func (b *Breaker) Available() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		return time.Since(b.openedAt) >= b.cfg.Cooldown
	default:
		return false
	}
}

// Success reports a completed call, closing the breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != Closed {
		b.stats.BreakerResets.Add(1)
	}
	b.state = Closed
	b.failures = 0
}

// Failure reports a transient failure: it trips a closed breaker at the
// threshold and re-opens a half-open one whose probe failed.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	switch b.state {
	case HalfOpen:
		b.state = Open
		b.openedAt = time.Now()
		b.stats.BreakerTrips.Add(1)
	case Closed:
		if b.failures >= b.cfg.Threshold {
			b.state = Open
			b.openedAt = time.Now()
			b.stats.BreakerTrips.Add(1)
		}
	}
	// Open: nothing to do — refusals are not new evidence.
}

// State reports the breaker's current state.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

func (b *Breaker) snapshot() (State, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.failures
}

// Group manages one breaker per endpoint plus the shared retry policy
// and stats. Safe for concurrent use.
type Group struct {
	// Policy and Breaker are the defaulted configurations the group was
	// built with.
	Policy  Policy
	Breaker BreakerConfig
	// Stats receives every counter increment; exported through
	// internal/metrics.
	Stats *metrics.ResilienceStats
	// NonRetryable, when set, overrides the default error classifier
	// (wire remote errors are final, everything else transient).
	NonRetryable func(error) bool

	rngMu sync.Mutex
	rng   *rand.Rand

	mu       sync.Mutex
	breakers map[string]*Breaker
}

// NewGroup builds a group; zero-valued configs mean defaults, and a nil
// stats allocates a private counter set.
func NewGroup(p Policy, bc BreakerConfig, stats *metrics.ResilienceStats) *Group {
	if stats == nil {
		stats = &metrics.ResilienceStats{}
	}
	p = p.withDefaults()
	return &Group{
		Policy:   p,
		Breaker:  bc.withDefaults(),
		Stats:    stats,
		rng:      rand.New(rand.NewSource(p.Seed)),
		breakers: make(map[string]*Breaker),
	}
}

func (g *Group) breaker(endpoint string) *Breaker {
	g.mu.Lock()
	defer g.mu.Unlock()
	b, ok := g.breakers[endpoint]
	if !ok {
		b = newBreaker(g.Breaker, g.Stats)
		g.breakers[endpoint] = b
	}
	return b
}

// Available reports whether endpoint currently accepts traffic — a
// routing hint that does not consume the half-open probe.
func (g *Group) Available(endpoint string) bool {
	return g.breaker(endpoint).Available()
}

// State reports the endpoint's breaker state.
func (g *Group) State(endpoint string) State {
	return g.breaker(endpoint).State()
}

// Backoff returns the jittered delay before retry number retry (0-based).
func (g *Group) Backoff(retry int) time.Duration {
	d := float64(g.Policy.BaseDelay) * math.Pow(g.Policy.Multiplier, float64(retry))
	if d > float64(g.Policy.MaxDelay) {
		d = float64(g.Policy.MaxDelay)
	}
	g.rngMu.Lock()
	f := g.rng.Float64()
	g.rngMu.Unlock()
	// Randomize away up to Jitter of the delay: [d*(1-Jitter), d].
	return time.Duration(d * (1 - g.Policy.Jitter*f))
}

// Sleep waits d, returning the context's error if it ends first.
func Sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// transient reports whether err is worth retrying.
func (g *Group) transient(err error) bool {
	if errors.Is(err, context.Canceled) {
		return false // the caller gave up; do not hold the budget
	}
	if g.NonRetryable != nil {
		return !g.NonRetryable(err)
	}
	var remote *wire.RemoteError
	return !errors.As(err, &remote)
}

// Do invokes fn against endpoint under the group's retry policy and the
// endpoint's breaker: each attempt runs under its own PerAttempt timeout
// derived from ctx, transient failures back off and retry, application
// errors return immediately, and an open breaker short-circuits without
// touching the network.
func (g *Group) Do(ctx context.Context, endpoint string, fn func(context.Context) error) error {
	b := g.breaker(endpoint)
	var lastErr error
	for attempt := 0; attempt < g.Policy.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return lastErr
			}
			return err
		}
		if !b.Allow() {
			g.Stats.ShortCircuits.Add(1)
			if lastErr != nil {
				return lastErr
			}
			return fmt.Errorf("%w: %s", ErrOpenCircuit, endpoint)
		}
		g.Stats.Attempts.Add(1)
		actx, cancel := context.WithTimeout(ctx, g.Policy.PerAttempt)
		err := fn(actx)
		cancel()
		if err == nil {
			b.Success()
			return nil
		}
		lastErr = err
		// An overloaded shed is backoff-not-failure: the endpoint is alive
		// and explicitly asked us to come back later. Honor the hint (at
		// least the normal backoff) without feeding the breaker — tripping
		// it, or counting the shed as a failure, would turn load shedding
		// into an outage and the retries into the storm it sheds against.
		var ov *wire.OverloadedError
		if errors.As(err, &ov) {
			g.Stats.OverloadBackoffs.Add(1)
			if attempt < g.Policy.MaxAttempts-1 {
				g.Stats.Retries.Add(1)
				delay := g.Backoff(attempt)
				if ov.RetryAfter > delay {
					delay = ov.RetryAfter
				}
				if Sleep(ctx, delay) != nil {
					return lastErr
				}
			}
			continue
		}
		// A not-leader redirect is likewise not an endpoint failure: the
		// node is alive and mid-failover (or we raced an election). Retry
		// after backoff — leadership settles within a lease TTL — without
		// feeding the breaker; callers that can re-home (MirrorClient,
		// Registrar) follow the redirect themselves before this matters.
		var nl *wire.NotLeaderError
		if errors.As(err, &nl) {
			if attempt < g.Policy.MaxAttempts-1 {
				g.Stats.Retries.Add(1)
				if Sleep(ctx, g.Backoff(attempt)) != nil {
					return lastErr
				}
			}
			continue
		}
		if !g.transient(err) {
			return err
		}
		g.Stats.Failures.Add(1)
		// The caller's own context expiring mid-attempt says nothing about
		// endpoint health — the budget was the binding constraint, not the
		// endpoint. Feeding the breaker here would let a burst of
		// tight-budget callers trip it and turn their expiry into an
		// outage for everyone after them.
		if ctx.Err() == nil {
			b.Failure()
		}
		if attempt < g.Policy.MaxAttempts-1 {
			g.Stats.Retries.Add(1)
			if Sleep(ctx, g.Backoff(attempt)) != nil {
				return lastErr
			}
		}
	}
	return lastErr
}

// Snapshot exports the counters and per-endpoint breaker states through
// the metrics package.
func (g *Group) Snapshot() metrics.ResilienceSnapshot {
	g.mu.Lock()
	infos := make([]metrics.BreakerInfo, 0, len(g.breakers))
	for ep, b := range g.breakers {
		st, fails := b.snapshot()
		infos = append(infos, metrics.BreakerInfo{Endpoint: ep, State: st.String(), Failures: fails})
	}
	g.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Endpoint < infos[j].Endpoint })
	return g.Stats.Snapshot(infos)
}
