package scenario

import (
	"strings"
	"testing"
)

// TestCheckRegression pins the one gate every committed BENCH_scenario
// baseline is checked through: each way a run can fall short of its
// baseline must be refused with a message naming it.
func TestCheckRegression(t *testing.T) {
	evaluated := func() *Report {
		r := healthyReport()
		r.Scenario = "e99_fixture"
		Evaluate(&Scenario{Asserts: []Assertion{
			{Kind: AssertShedFloor, Phase: "wave", Min: 1},
			{Kind: AssertErrorCeiling, Phase: "steady"},
		}}, r)
		return r
	}
	cases := []struct {
		name        string
		nilBaseline bool
		// mutate breaks the current run (or the baseline it is held to).
		mutate func(baseline, current *Report)
		want   string // substring of the error; "" = must pass
		// notWant must not appear in the error.
		notWant string
	}{
		{name: "run matches its baseline"},
		{name: "nil baseline gates on assertions only", nilBaseline: true},
		{
			name:        "nil baseline still refuses a failing assertion",
			nilBaseline: true,
			mutate:      func(_, cur *Report) { cur.Assertions[0].Pass = false },
			want:        "shed-floor(wave)",
		},
		{
			name:   "missing phase",
			mutate: func(_, cur *Report) { cur.Phase("wave").Name = "renamed" },
			want:   `phase "wave" missing from current run`,
		},
		{
			name:   "fewer assertions",
			mutate: func(_, cur *Report) { cur.Assertions = cur.Assertions[:1] },
			want:   "evaluated 1 assertions, baseline had 2",
		},
		{
			name:   "failing assertion",
			mutate: func(_, cur *Report) { cur.Assertions[1].Pass = false },
			want:   "error-ceiling(steady)",
		},
		{
			// A swapped pair says so once, not as a wall of missing phases.
			name: "mismatched scenario name",
			mutate: func(base, _ *Report) {
				base.Scenario = "e98_other"
				base.Phase("wave").Name = "other-wave"
			},
			want:    `baseline is a run of "e98_other", current run is "e99_fixture"`,
			notWant: "missing from current run",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline, current := evaluated(), evaluated()
			if tc.mutate != nil {
				tc.mutate(baseline, current)
			}
			if tc.nilBaseline {
				baseline = nil
			}
			err := CheckRegression(baseline, current)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("acceptable run refused: %v", err)
			case tc.want != "" && err == nil:
				t.Fatal("regression accepted")
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			if tc.notWant != "" && strings.Contains(err.Error(), tc.notWant) {
				t.Errorf("error %q mentions %q", err, tc.notWant)
			}
		})
	}
}
