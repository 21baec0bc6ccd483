package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"
)

// counters is one reading of every boundary counter the per-layer pass
// takes deltas of.
type counters struct {
	cacheHits, cacheMisses, shieldEvals, bytesProxied uint64
	flights, coalesceHits, fanOutCalls                uint64
	appends, syncs, compactions                       uint64
	admitted, queued, shed                            uint64
	retries                                           uint64
	mallocs, allocBytes, gcPauseNS, heapInuse         uint64
}

func (s *session) readCounters() counters {
	m := s.rig.mdm
	snap := m.Snapshot()
	c := counters{
		cacheHits: snap.CacheHits, cacheMisses: snap.CacheMisses,
		shieldEvals: m.Stats.ShieldEvals.Load(), bytesProxied: snap.BytesProxied,
		flights: snap.Flights, coalesceHits: snap.CoalesceHits, fanOutCalls: snap.FanOutCalls,
		admitted: snap.AdmissionAdmitted, queued: snap.AdmissionQueued, shed: snap.ShedHigh + snap.ShedNormal,
		retries: snap.Retries,
	}
	if j := m.Journal(); j != nil {
		js := j.Stats()
		c.appends, c.syncs, c.compactions = js.Appends.Load(), js.Syncs.Load(), js.Compactions.Load()
	}
	for _, cli := range s.rig.clients {
		ps := cli.Pipeline().Snapshot()
		c.flights += ps.Flights
		c.coalesceHits += ps.CoalesceHits
		c.fanOutCalls += ps.FanOutCalls
		c.retries += cli.Resilience.Stats.Retries.Load()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes, c.gcPauseNS, c.heapInuse = ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs, ms.HeapInuse
	return c
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// measureTraced is the per-layer pass. Half the measured time runs untraced
// and yields the boundary counts and the reference rate; the other half is
// one traced wave; then the layer timings run on the idle rig.
func (s *session) measureTraced(ctx context.Context, res *runResult) error {
	cfg := s.cfg
	m := res.metrics
	half := time.Duration(cfg.seconds / 2 * float64(time.Second))

	// Per-layer numbers are as measured; machine.speed_ratio says how fast the
	// machine was while they were taken (1 = the yardstick's nominal speed).
	before, err := s.ref.read(refGap, refRead)
	if err != nil {
		return err
	}

	// Boundary counts over two untraced waves.
	c0 := s.readCounters()
	var rates, p50s []float64
	var pooled [2][]int64
	var all []int64
	ops := 0
	for k := 0; k < 2; k++ {
		ws, _ := s.runWave(ctx, half/2, false)
		rates, p50s = append(rates, ws.opsPerS()), append(p50s, quantileUS(ws.all, 0.50))
		ops += ws.attempted
		for c := range pooled {
			pooled[c] = append(pooled[c], ws.lat[c]...)
		}
		all = append(all, ws.all...)
	}
	c1 := s.readCounters()
	after, err := s.ref.read(refGap, refRead)
	if err != nil {
		return err
	}
	m["machine.speed_ratio"] = nominalRefNS / between(before, after).wallNS
	for c := range pooled {
		slices.Sort(pooled[c])
	}
	slices.Sort(all)
	n := uint64(max(1, ops))
	m["core.cache.hit_ratio"] = ratio(c1.cacheHits-c0.cacheHits, c1.cacheHits-c0.cacheHits+c1.cacheMisses-c0.cacheMisses)
	m["core.shield_evals_per_op"] = ratio(c1.shieldEvals-c0.shieldEvals, n)
	m["core.bytes_proxied_per_op"] = ratio(c1.bytesProxied-c0.bytesProxied, n)
	m["flight.coalesce_hit_ratio"] = ratio(c1.coalesceHits-c0.coalesceHits, c1.coalesceHits-c0.coalesceHits+c1.flights-c0.flights)
	m["flight.fanout_calls_per_op"] = ratio(c1.fanOutCalls-c0.fanOutCalls, n)
	m["journal.syncs_per_append"] = ratio(c1.syncs-c0.syncs, c1.appends-c0.appends)
	m["journal.compactions"] = float64(c1.compactions - c0.compactions)
	m["overload.queued_ratio"] = ratio(c1.queued-c0.queued, c1.admitted-c0.admitted)
	m["overload.shed_ratio"] = ratio(c1.shed-c0.shed, c1.admitted-c0.admitted+c1.shed-c0.shed)
	m["resilience.retries_per_op"] = ratio(c1.retries-c0.retries, n)
	m["process.allocs_per_op"] = ratio(c1.mallocs-c0.mallocs, n)
	m["process.bytes_per_op"] = ratio(c1.allocBytes-c0.allocBytes, n)
	m["process.gc_pause_ms"] = float64(c1.gcPauseNS-c0.gcPauseNS) / 1e6
	m["process.heap_inuse_mb"] = float64(c1.heapInuse) / (1 << 20)
	m["client.p95_us"] = quantileUS(all, 0.95)
	m["client.p99_us"] = quantileUS(all, 0.99)
	m["client.read.p50_us"] = quantileUS(pooled[classRead], 0.50)
	m["client.write.p50_us"] = quantileUS(pooled[classWrite], 0.50)
	m["client.write.p95_us"] = quantileUS(pooled[classWrite], 0.95)
	untraced := median(rates)
	p50 := median(p50s)
	fmt.Fprintf(cfg.log, "  untraced reference: %d ops, %.1f ops/s, p50 %.1f us, p95 %.1f us, p99 %.1f us, machine at %.2f of reference speed\n", ops, untraced, p50, m["client.p95_us"], m["client.p99_us"], m["machine.speed_ratio"])

	// One traced wave.
	ws, logs := s.runWave(ctx, half, true)
	stats, err := selfTimes(logs)
	if err != nil {
		return fmt.Errorf("trace self-check: %w", err)
	}
	for _, name := range spanNames {
		st := stats[name]
		if st == nil {
			st = &spanStat{}
		}
		slices.Sort(st.selfNS)
		m["span."+name+".self_p50_us"] = quantileUS(st.selfNS, 0.50)
		m["span."+name+".per_op"] = float64(st.count) / float64(max(1, ws.attempted))
	}
	m["trace.overhead_ratio"] = ws.opsPerS() / untraced
	spanFile, err := writeSpans(cfg.outDir, cfg.spec.name, logs)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.log, "  traced wave: %d ops, %.1f ops/s (%.3f of untraced), spans in %s\n", ws.attempted, ws.opsPerS(), m["trace.overhead_ratio"], spanFile)

	// Layer timings on the idle rig, then the budget they add up to.
	layers, err := s.timeLayers(ctx)
	if err != nil {
		return fmt.Errorf("layers: %w", err)
	}
	for _, lt := range layers {
		m[lt.name+".ns_op"] = lt.nsOp
		m[lt.name+".allocs_op"] = lt.allocsOp
	}
	printBudget(cfg, layers, p50, 1-m["core.cache.hit_ratio"], m)
	return nil
}

// spanNames are the spans the per-layer metrics report, in tree order.
var spanNames = []string{"op", "client.resolve", "client.follow", "client.register", "mdm.resolve.inproc", "store.fetch.inproc"}
