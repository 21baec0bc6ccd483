package metrics

import "sync/atomic"

// PipelineStats aggregates the resolve pipeline's throughput counters:
// in-flight request coalescing (singleflight) and bounded parallel
// fan-out. The coalescing layer (internal/flight) feeds the first pair;
// the MDM's batch handler and fan-out call sites feed the rest. All
// fields are atomic; the zero value is ready to use.
type PipelineStats struct {
	// Flights counts coalesced groups actually executed — the leaders
	// that paid for an upstream round trip.
	Flights atomic.Uint64
	// CoalesceHits counts callers served by another caller's in-flight
	// leader instead of doing their own upstream work.
	CoalesceHits atomic.Uint64
	// FanOuts counts bounded parallel fan-out batches (one per
	// multi-referral alternative, sibling-gathering exec, or peer
	// replication round).
	FanOuts atomic.Uint64
	// FanOutCalls counts the individual calls those batches dispatched.
	FanOutCalls atomic.Uint64
	// BatchResolves counts batch-resolve frames served.
	BatchResolves atomic.Uint64
	// BatchedQueries counts the individual resolves carried inside those
	// frames.
	BatchedQueries atomic.Uint64
}

// PipelineSnapshot is a point-in-time view of PipelineStats.
type PipelineSnapshot struct {
	Flights        uint64
	CoalesceHits   uint64
	FanOuts        uint64
	FanOutCalls    uint64
	BatchResolves  uint64
	BatchedQueries uint64
}

// Snapshot captures the counters.
func (s *PipelineStats) Snapshot() PipelineSnapshot {
	return PipelineSnapshot{
		Flights:        s.Flights.Load(),
		CoalesceHits:   s.CoalesceHits.Load(),
		FanOuts:        s.FanOuts.Load(),
		FanOutCalls:    s.FanOutCalls.Load(),
		BatchResolves:  s.BatchResolves.Load(),
		BatchedQueries: s.BatchedQueries.Load(),
	}
}
