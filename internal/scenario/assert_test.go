package scenario

import (
	"strings"
	"testing"
	"time"
)

// healthyReport is the fixture every assertion kind is judged against: a
// fast steady phase, a degraded phase that shed, three interleaved
// off/on wave pairs (on/off p95 ratios 1.01, 0.99 and one noisy 1.50
// outlier the median must discard), and clean registration audits.
func healthyReport() *Report {
	wave := func(name string, p95 int64) PhaseReport {
		return PhaseReport{Name: name, Rig: "r", Kind: "closed", Sent: 16, InBudget: 16, P95Micros: p95}
	}
	return &Report{
		MDMSpans: 40,
		Phases: []PhaseReport{
			wave("w0-lookup-off", 1000), wave("w0-lookup-on", 1010),
			wave("w1-lookup-on", 990), wave("w1-lookup-off", 1000),
			wave("w2-lookup-off", 1000), wave("w2-lookup-on", 1500),
			{
				Name: "steady", Rig: "r", Kind: "open",
				Sent: 100, InBudget: 98, Errors: 0,
				P95Micros:        int64(2 * time.Millisecond / time.Microsecond),
				ThroughputPerSec: 50, GoodputPerSec: 49,
			},
			{
				Name: "wave", Rig: "r", Kind: "open",
				Sent: 200, InBudget: 80, Shed: 90, Expired: 20, Errors: 10,
				P95Micros:        int64(40 * time.Millisecond / time.Microsecond),
				ThroughputPerSec: 40, GoodputPerSec: 40,
			},
		},
		Registrations: []RegistrationAudit{{Rig: "r", Expected: 16, Registered: 16}},
	}
}

// TestAssertions drives every assertion kind through a passing and a
// failing evaluation; the failure detail must be an actionable sentence
// naming the measured value, not a bare boolean.
func TestAssertions(t *testing.T) {
	cases := []struct {
		name string
		a    Assertion
		// mutate breaks the healthy report for the failing half.
		mutate   func(*Report)
		failWant string // substring of the failure detail
	}{
		{
			name:     "p95-ceiling",
			a:        Assertion{Kind: AssertP95Ceiling, Phase: "steady", Max: 5 * time.Millisecond},
			mutate:   func(r *Report) { r.Phase("steady").P95Micros = int64(9 * time.Millisecond / time.Microsecond) },
			failWant: "exceeds ceiling",
		},
		{
			name:     "goodput-floor",
			a:        Assertion{Kind: AssertGoodputFloor, Phase: "steady", Min: 40},
			mutate:   func(r *Report) { r.Phase("steady").GoodputPerSec = 3 },
			failWant: "below floor",
		},
		{
			name:     "shed-floor",
			a:        Assertion{Kind: AssertShedFloor, Phase: "wave", Min: 1},
			mutate:   func(r *Report) { r.Phase("wave").Shed = 0 },
			failWant: "admission control did not engage",
		},
		{
			name:     "error-ceiling",
			a:        Assertion{Kind: AssertErrorCeiling, Phase: "steady", MaxCount: 0},
			mutate:   func(r *Report) { r.Phase("steady").Errors = 3 },
			failWant: "3 errors, ceiling 0",
		},
		{
			name:     "throughput-ratio-floor",
			a:        Assertion{Kind: AssertThroughputRatio, Num: "steady", Den: "wave", Min: 1.2},
			mutate:   func(r *Report) { r.Phase("steady").ThroughputPerSec = 10 },
			failWant: "below floor",
		},
		{
			name:     "retention-floor",
			a:        Assertion{Kind: AssertRetentionFloor, Num: "wave", Den: "steady", Min: 0.5},
			mutate:   func(r *Report) { r.Phase("wave").GoodputPerSec = 1 },
			failWant: "below floor",
		},
		{
			name:     "retention-ceiling",
			a:        Assertion{Kind: AssertRetentionCeiling, Num: "wave", Den: "steady", MaxRatio: 0.9},
			mutate:   func(r *Report) { r.Phase("wave").GoodputPerSec = 49 },
			failWant: "no longer collapses",
		},
		{
			name:     "zero-lost-registrations",
			a:        Assertion{Kind: AssertZeroLostCoverage},
			mutate:   func(r *Report) { r.Registrations[0].Registered = 15 },
			failWant: "coverage was lost",
		},
		{
			name:     "zero-lost-registrations probe failure",
			a:        Assertion{Kind: AssertZeroLostCoverage},
			mutate:   func(r *Report) { r.Registrations[0].ProbeFailures = 2 },
			failWant: "probes failed",
		},
		{
			name: "paired-p95-ceiling odd waves",
			a:    Assertion{Kind: AssertPairedP95Ceiling, Phase: "lookup", MaxRatio: 1.05},
			mutate: func(r *Report) {
				r.Phase("w0-lookup-on").P95Micros = 1200
				r.Phase("w1-lookup-on").P95Micros = 1100
			},
			failWant: "ratio 1.200 over 3 lookup waves above ceiling 1.05",
		},
		{
			name: "paired-p95-ceiling even waves",
			a:    Assertion{Kind: AssertPairedP95Ceiling, Phase: "lookup", MaxRatio: 1.05},
			mutate: func(r *Report) {
				// Two waves left, ratios 1.01 and 1.19: the even-count
				// median is their mean.
				r.Phases = r.Phases[:4]
				r.Phase("w1-lookup-on").P95Micros = 1190
			},
			failWant: "ratio 1.100 over 2 lookup waves above ceiling 1.05",
		},
		{
			name: "paired-p95-ceiling no pairs",
			a:    Assertion{Kind: AssertPairedP95Ceiling, Phase: "lookup", MaxRatio: 1.05},
			mutate: func(r *Report) {
				for i := range r.Phases {
					r.Phases[i].Name = strings.TrimSuffix(r.Phases[i].Name, "-on")
				}
			},
			failWant: "nothing was compared",
		},
		{
			name:     "mdm-spans-floor",
			a:        Assertion{Kind: AssertMDMSpansFloor, Min: 1},
			mutate:   func(r *Report) { r.MDMSpans = 0 },
			failWant: "tracing was not exercised",
		},
		{
			name:     "missing phase",
			a:        Assertion{Kind: AssertP95Ceiling, Phase: "steady", Max: time.Second},
			mutate:   func(r *Report) { r.Phase("steady").Name = "renamed" },
			failWant: "not in report",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := &Scenario{Asserts: []Assertion{tc.a}}

			rep := healthyReport()
			Evaluate(sc, rep)
			if len(rep.Assertions) != 1 {
				t.Fatalf("got %d results, want 1", len(rep.Assertions))
			}
			if res := rep.Assertions[0]; !res.Pass || !rep.Pass {
				t.Fatalf("healthy report failed: %s", res.Detail)
			}

			broken := healthyReport()
			tc.mutate(broken)
			Evaluate(sc, broken)
			res := broken.Assertions[0]
			if res.Pass || broken.Pass {
				t.Fatalf("broken report passed: %s", res.Detail)
			}
			if !strings.Contains(res.Detail, tc.failWant) {
				t.Errorf("failure detail %q does not mention %q", res.Detail, tc.failWant)
			}
			if res.Kind != tc.a.Kind {
				t.Errorf("result kind %q, want %q", res.Kind, tc.a.Kind)
			}
		})
	}
}

// TestEvaluateMixedResults checks that one failing assertion fails the
// run while the passing ones keep their own verdicts.
func TestEvaluateMixedResults(t *testing.T) {
	sc := &Scenario{Asserts: []Assertion{
		{Kind: AssertShedFloor, Phase: "wave", Min: 1},
		{Kind: AssertGoodputFloor, Phase: "steady", Min: 1000},
	}}
	rep := healthyReport()
	Evaluate(sc, rep)
	if rep.Pass {
		t.Error("report passed with a failing assertion")
	}
	if !rep.Assertions[0].Pass || rep.Assertions[1].Pass {
		t.Errorf("verdicts wrong: %+v", rep.Assertions)
	}
}

// TestEvaluateUnknownKind: an unrecognized kind must fail loudly, never
// silently pass.
func TestEvaluateUnknownKind(t *testing.T) {
	rep := healthyReport()
	Evaluate(&Scenario{Asserts: []Assertion{{Kind: "vibes"}}}, rep)
	if rep.Pass || rep.Assertions[0].Pass {
		t.Error("unknown assertion kind passed")
	}
	if !strings.Contains(rep.Assertions[0].Detail, "unknown assertion kind") {
		t.Errorf("detail %q does not name the problem", rep.Assertions[0].Detail)
	}
}
