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
