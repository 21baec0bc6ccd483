package debugsrv

import (
	"testing"

	"gupster/internal/metrics"
	"gupster/internal/wire"
)

// The exposition names every field by its json name without ",omitempty",
// numbers list rows, and leaves a nil section out.
func TestExposition(t *testing.T) {
	st := wire.StatsResponse{
		Resolves:      12,
		Registrations: 3,
		Retries:       2,
		Hops: []metrics.HopStat{
			{Name: "mdm.resolve", Count: 12, P50Micros: 80, P95Micros: 200, P99Micros: 310, MaxMicros: 400},
			{Name: "store.fetch", Count: 4, P50Micros: 55},
		},
		Leases:         []wire.LeaseInfo{{Store: "a.gup", Addr: "127.0.0.1:7101", RemainingMillis: -5, Quarantined: true, Registrations: 1}},
		BrownoutActive: true,
		Pressure:       0.25,
	}
	const want = `resolves 12
denied 0
spurious 0
cache_hits 0
cache_misses 0
registrations 3
subscriptions 0
bytes_proxied 0
retries 2
breaker_trips 0
short_circuits 0
flights 0
coalesce_hits 0
fan_outs 0
fan_out_calls 0
batch_resolves 0
batched_queries 0
hops.0.name mdm.resolve
hops.0.count 12
hops.0.p50_us 80
hops.0.p95_us 200
hops.0.p99_us 310
hops.0.max_us 400
hops.1.name store.fetch
hops.1.count 4
hops.1.p50_us 55
hops.1.p95_us 0
hops.1.p99_us 0
hops.1.max_us 0
trace_spans 0
trace_dropped 0
leases.0.store a.gup
leases.0.addr 127.0.0.1:7101
leases.0.remaining_millis -5
leases.0.quarantined true
leases.0.registrations 1
lease_renewals 0
quarantines 0
lease_recoveries 0
plan_exclusions 0
degraded_resolves 0
journal_appends 0
journal_syncs 0
journal_compactions 0
journal_recovered 0
journal_torn_bytes 0
admission_admitted 0
admission_queued 0
shed_high 0
shed_normal 0
queue_timeouts 0
budget_expired 0
brownout_active true
brownout_enters 0
brownout_exits 0
brownout_served 0
pressure 0.25
`
	if got := string(exposition(st)); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}
