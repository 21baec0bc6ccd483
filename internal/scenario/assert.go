package scenario

import (
	"fmt"
	"sort"
	"time"
)

// Evaluate runs every assertion of sc against report, appends the
// results and sets report.Pass. Failure details name the measured value,
// the bound and the phase, so a CI failure reads as a diagnosis rather
// than a boolean.
func Evaluate(sc *Scenario, report *Report) {
	report.Pass = true
	for i := range sc.Asserts {
		res := evalOne(&sc.Asserts[i], report)
		if !res.Pass {
			report.Pass = false
		}
		report.Assertions = append(report.Assertions, res)
	}
}

func evalOne(a *Assertion, report *Report) AssertionResult {
	res := AssertionResult{Kind: a.Kind, Target: a.Phase}
	fail := func(format string, args ...any) AssertionResult {
		res.Pass = false
		res.Detail = fmt.Sprintf(format, args...)
		return res
	}
	pass := func(format string, args ...any) AssertionResult {
		res.Pass = true
		res.Detail = fmt.Sprintf(format, args...)
		return res
	}
	phase := report.Phase

	// The single-phase kinds look their phase up once.
	var p *PhaseReport
	switch a.Kind {
	case AssertP95Ceiling, AssertGoodputFloor, AssertShedFloor, AssertErrorCeiling,
		AssertFailoverCeiling, AssertRepairCeiling, AssertMovedOwnersFloor:
		if p = phase(a.Phase); p == nil {
			return fail("phase %q not in report", a.Phase)
		}
	}

	switch a.Kind {
	case AssertP95Ceiling:
		got := time.Duration(p.P95Micros) * time.Microsecond
		if got > a.Max {
			return fail("phase %s p95 %s exceeds ceiling %s — the phase got slower; profile it or raise the ceiling deliberately", a.Phase, got, a.Max)
		}
		return pass("phase %s p95 %s within ceiling %s", a.Phase, got, a.Max)

	case AssertGoodputFloor:
		if p.GoodputPerSec < a.Min {
			return fail("phase %s goodput %.1f/s below floor %.1f/s — in-budget completions collapsed", a.Phase, p.GoodputPerSec, a.Min)
		}
		return pass("phase %s goodput %.1f/s meets floor %.1f/s", a.Phase, p.GoodputPerSec, a.Min)

	case AssertShedFloor:
		if float64(p.Shed) < a.Min {
			return fail("phase %s shed %d requests, floor %.0f — admission control did not engage under the offered load", a.Phase, p.Shed, a.Min)
		}
		return pass("phase %s shed %d requests (floor %.0f)", a.Phase, p.Shed, a.Min)

	case AssertErrorCeiling:
		if p.Errors > a.MaxCount {
			return fail("phase %s had %d errors, ceiling %d — something broke beyond shedding and expiry", a.Phase, p.Errors, a.MaxCount)
		}
		return pass("phase %s errors %d within ceiling %d", a.Phase, p.Errors, a.MaxCount)

	case AssertThroughputRatio, AssertRetentionFloor, AssertRetentionCeiling:
		res.Target = a.Num + "/" + a.Den
		num, den := phase(a.Num), phase(a.Den)
		if num == nil || den == nil {
			return fail("phases %q/%q not both in report", a.Num, a.Den)
		}
		var ratio float64
		var metric string
		if a.Kind == AssertThroughputRatio {
			metric = "throughput"
			if den.ThroughputPerSec > 0 {
				ratio = num.ThroughputPerSec / den.ThroughputPerSec
			}
		} else {
			metric = "goodput"
			if den.GoodputPerSec > 0 {
				ratio = num.GoodputPerSec / den.GoodputPerSec
			}
		}
		if a.Kind == AssertRetentionCeiling {
			if ratio > a.MaxRatio {
				return fail("%s ratio %s/%s = %.2f above ceiling %.2f — the baseline no longer collapses; re-examine the testbed", metric, a.Num, a.Den, ratio, a.MaxRatio)
			}
			return pass("%s ratio %s/%s = %.2f within ceiling %.2f", metric, a.Num, a.Den, ratio, a.MaxRatio)
		}
		if ratio < a.Min {
			return fail("%s ratio %s/%s = %.2f below floor %.2f", metric, a.Num, a.Den, ratio, a.Min)
		}
		return pass("%s ratio %s/%s = %.2f meets floor %.2f", metric, a.Num, a.Den, ratio, a.Min)

	case AssertZeroLostCoverage:
		res.Target = "registrations"
		for _, audit := range report.Registrations {
			if audit.Registered != audit.Expected {
				return fail("rig %s holds %d registrations, expected %d — coverage was lost across the run", audit.Rig, audit.Registered, audit.Expected)
			}
			if audit.ProbeFailures > 0 {
				return fail("rig %s: %d end-of-run coverage probes failed — registered paths did not resolve", audit.Rig, audit.ProbeFailures)
			}
			if audit.Lost > 0 {
				return fail("rig %s lost %d of %d quorum-acked registrations — a durability ack was broken by failover", audit.Rig, audit.Lost, audit.Acked)
			}
		}
		return pass("all %d rigs hold full coverage", len(report.Registrations))

	case AssertFailoverCeiling:
		if p.FailoverMillis <= 0 {
			return fail("phase %s recorded no failover — the leader kill did not fire or no replacement was elected", a.Phase)
		}
		got := time.Duration(p.FailoverMillis) * time.Millisecond
		if got > a.Max {
			return fail("phase %s failover took %s, ceiling %s — election is slower than one lease TTL", a.Phase, got, a.Max)
		}
		return pass("phase %s failed over in %s (ceiling %s)", a.Phase, got, a.Max)

	case AssertRepairCeiling:
		if p.RepairMillis <= 0 {
			return fail("phase %s recorded no repair — the shard fault did not fire or no auto-repair completed", a.Phase)
		}
		got := time.Duration(p.RepairMillis) * time.Millisecond
		if got > a.Max {
			return fail("phase %s detected and repaired in %s, ceiling %s — gossip detection or spare promotion is too slow", a.Phase, got, a.Max)
		}
		return pass("phase %s repaired in %s to epoch %d, promoting %v (ceiling %s)", a.Phase, got, p.RepairEpoch, p.PromotedShards, a.Max)

	case AssertConvergence:
		res.Target = "constellation"
		checked := 0
		for _, audit := range report.Registrations {
			if audit.MapViews == 0 {
				continue // not an auto-repair rig
			}
			checked++
			if audit.MapViews != 1 {
				return fail("rig %s ended with %d distinct shard-map views — the constellation did not converge on one epoch", audit.Rig, audit.MapViews)
			}
			if audit.SplitBrainOwners > 0 {
				return fail("rig %s ended with %d owners claimed by more than one live shard — split-brain coverage survived the repair", audit.Rig, audit.SplitBrainOwners)
			}
		}
		if checked == 0 {
			return fail("no rig recorded a constellation view — convergence asserted on a scenario without auto-repair rigs")
		}
		return pass("%d rigs converged on a single shard-map view with no split-brain owners", checked)

	case AssertMovedOwnersFloor:
		if p.RebalanceMillis <= 0 {
			return fail("phase %s recorded no rebalance — the shard-map expansion did not fire or did not complete", a.Phase)
		}
		if float64(p.MovedOwners) < a.Min {
			return fail("phase %s rebalance moved %d owners, floor %.0f — the expansion did not actually spread the keyspace", a.Phase, p.MovedOwners, a.Min)
		}
		return pass("phase %s rebalanced in %dms, %d owners moved (floor %.0f)", a.Phase, p.RebalanceMillis, p.MovedOwners, a.Min)

	case AssertPairedP95Ceiling:
		// The median of adjacent-wave ratios, not the ratio of pooled
		// p95s: a pooled tail is owned by whichever single wave machine
		// noise hit, while noise on adjacent waves hits both modes alike
		// and cancels in each pair's ratio.
		var ratios []float64
		for i := range report.Phases {
			off := &report.Phases[i]
			if name, ok := wavePair(off.Name, a.Phase); ok {
				if on := phase(name); on != nil && off.P95Micros > 0 {
					ratios = append(ratios, float64(on.P95Micros)/float64(off.P95Micros))
				}
			}
		}
		if len(ratios) == 0 {
			return fail("no w<k>-%s-off/-on phase pair in report — nothing was compared", a.Phase)
		}
		sort.Float64s(ratios)
		median := ratios[len(ratios)/2]
		if len(ratios)%2 == 0 {
			median = (ratios[len(ratios)/2-1] + median) / 2
		}
		if median > a.MaxRatio {
			return fail("median on/off p95 ratio %.3f over %d %s waves above ceiling %.2f — the toggled feature costs more than its budget", median, len(ratios), a.Phase, a.MaxRatio)
		}
		return pass("median on/off p95 ratio %.3f over %d %s waves within ceiling %.2f", median, len(ratios), a.Phase, a.MaxRatio)

	case AssertMDMSpansFloor:
		res.Target = "mdm-spans"
		if float64(report.MDMSpans) < a.Min {
			return fail("rig MDMs collected %d trace spans, floor %.0f — tracing was not exercised", report.MDMSpans, a.Min)
		}
		return pass("rig MDMs collected %d trace spans (floor %.0f)", report.MDMSpans, a.Min)
	}
	return fail("unknown assertion kind %q", a.Kind)
}
