package metrics

import "sync/atomic"

// ResilienceStats aggregates the resilience layer's observability
// counters: retry attempts, breaker transitions, and referral fallbacks.
// All fields are atomic; the zero value is ready to use. The resilience
// layer (internal/resilience) feeds these; benchmarks and operations read
// them to see how hard the system is working to mask partial failures.
type ResilienceStats struct {
	// Attempts counts individual endpoint calls tried (first tries and
	// retries alike).
	Attempts atomic.Uint64
	// Retries counts attempts beyond each call's first try.
	Retries atomic.Uint64
	// Failures counts attempts that returned a transient error.
	Failures atomic.Uint64
	// BreakerTrips counts closed/half-open → open transitions.
	BreakerTrips atomic.Uint64
	// BreakerProbes counts open → half-open probe admissions.
	BreakerProbes atomic.Uint64
	// BreakerResets counts half-open → closed recoveries.
	BreakerResets atomic.Uint64
	// ShortCircuits counts calls refused outright while a breaker was
	// open.
	ShortCircuits atomic.Uint64
	// Fallbacks counts resolves served by a non-first referral
	// alternative (a replica covered for a failed store).
	Fallbacks atomic.Uint64
	// OverloadBackoffs counts attempts the remote end shed under admission
	// control. Sheds back off and retry but never count as failures — an
	// overloaded store is alive, and tripping its breaker (or counting the
	// shed toward Failures) would amplify the storm the shed exists to
	// stop.
	OverloadBackoffs atomic.Uint64
}

// BreakerInfo reports one endpoint's circuit breaker at snapshot time.
type BreakerInfo struct {
	Endpoint string
	// State is "closed", "open", or "half-open".
	State string
	// Failures is the endpoint's consecutive transient-failure count.
	Failures int
}

// ResilienceSnapshot is a point-in-time view of ResilienceStats plus the
// per-endpoint breaker states.
type ResilienceSnapshot struct {
	Attempts         uint64
	Retries          uint64
	Failures         uint64
	BreakerTrips     uint64
	BreakerProbes    uint64
	BreakerResets    uint64
	ShortCircuits    uint64
	Fallbacks        uint64
	OverloadBackoffs uint64
	Breakers         []BreakerInfo
}

// Snapshot captures the counters together with the supplied breaker
// states.
func (s *ResilienceStats) Snapshot(breakers []BreakerInfo) ResilienceSnapshot {
	return ResilienceSnapshot{
		Attempts:         s.Attempts.Load(),
		Retries:          s.Retries.Load(),
		Failures:         s.Failures.Load(),
		BreakerTrips:     s.BreakerTrips.Load(),
		BreakerProbes:    s.BreakerProbes.Load(),
		BreakerResets:    s.BreakerResets.Load(),
		ShortCircuits:    s.ShortCircuits.Load(),
		Fallbacks:        s.Fallbacks.Load(),
		OverloadBackoffs: s.OverloadBackoffs.Load(),
		Breakers:         breakers,
	}
}
