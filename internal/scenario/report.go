package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"gupster/internal/metrics"
)

// PhaseReport is one phase's measured outcome.
type PhaseReport struct {
	Name string `json:"name"`
	Rig  string `json:"rig"`
	// Kind is "calibrate", "closed" or "open".
	Kind string `json:"kind"`
	// Sent is the offered load (individual requests; a batch resolve
	// counts each path). InBudget counts completions inside the
	// per-request budget (with no budget, every completion). Shed counts
	// explicit overload refusals, Expired budget-burned requests, Errors
	// everything else.
	Sent     int `json:"sent"`
	InBudget int `json:"in_budget"`
	Shed     int `json:"shed"`
	Expired  int `json:"expired"`
	Errors   int `json:"errors"`
	// Latency percentiles of in-budget completions.
	P50Micros int64 `json:"p50_us"`
	P95Micros int64 `json:"p95_us"`
	P99Micros int64 `json:"p99_us"`
	// ThroughputPerSec is completions over wall clock; GoodputPerSec is
	// in-budget completions over the phase's nominal send window (open
	// loop) or wall clock (closed loop).
	ThroughputPerSec float64 `json:"throughput_per_sec"`
	GoodputPerSec    float64 `json:"goodput_per_sec"`
	// Pipeline deltas across the phase, from the rig MDM's counters.
	CoalesceHitRate float64 `json:"coalesce_hit_rate"`
	FanOutCalls     uint64  `json:"fan_out_calls"`
	DurationMillis  int64   `json:"duration_ms"`
	// FailoverMillis is how long the surviving members took to elect a
	// replacement after a kill-leader event (0 = no kill in this phase).
	FailoverMillis int64 `json:"failover_ms,omitempty"`
	// RebalanceMillis is how long a rebalance event's live shard-map
	// expansion took end to end (0 = no rebalance in this phase);
	// MovedOwners counts the seeded owners whose home shard changed.
	RebalanceMillis int64 `json:"rebalance_ms,omitempty"`
	MovedOwners     int   `json:"moved_owners,omitempty"`
	// RepairMillis is how long a shard kill or partition event took from
	// imposing the fault to a completed auto-repair (0 = no shard fault in
	// this phase; the slowest, with several); RepairEpoch the fencing epoch
	// the repair installed, PromotedShards the spares it promoted.
	RepairMillis   int64    `json:"repair_ms,omitempty"`
	RepairEpoch    uint64   `json:"repair_epoch,omitempty"`
	PromotedShards []string `json:"promoted_shards,omitempty"`
	// Resources samples the host across the phase (CPU as a delta).
	Resources Resources `json:"resources"`
	// Events are the events captured while the phase ran — the rig nodes'
	// elections, map changes and repairs beside the harness's narration.
	Events []PhaseEvent `json:"events,omitempty"`
}

// PhaseEvent is one captured event, at its offset from the phase's start.
type PhaseEvent struct {
	AtMillis int64             `json:"at_ms"`
	Message  string            `json:"msg"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// RegistrationAudit is the end-of-rig durability check feeding the
// zero-lost-registrations assertion.
type RegistrationAudit struct {
	Rig string `json:"rig"`
	// Expected is the rig's full coverage count; Registered what the
	// MDM's registry held at teardown; ProbeFailures how many audit
	// resolves failed.
	Expected      int `json:"expected"`
	Registered    int `json:"registered"`
	ProbeFailures int `json:"probe_failures"`
	// Acked counts quorum-acknowledged workload registrations on a
	// replicated rig; Lost how many of those the surviving leader no
	// longer holds at teardown — the zero-lost-registrations claim.
	Acked int `json:"acked,omitempty"`
	Lost  int `json:"lost,omitempty"`
	// MapViews counts the distinct shard-map coordinates live shards of an
	// auto-repair rig served at teardown (1 = converged); SplitBrainOwners
	// how many owners more than one live slice still claimed.
	MapViews         int `json:"map_views,omitempty"`
	SplitBrainOwners int `json:"split_brain_owners,omitempty"`
}

// AssertionResult is one evaluated assertion.
type AssertionResult struct {
	Kind   string `json:"kind"`
	Target string `json:"target"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// Report is the machine-readable output of a scenario run.
type Report struct {
	Scenario   string `json:"scenario"`
	Seed       int64  `json:"seed"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// ServiceP50Micros is the first calibration's unloaded service p50;
	// BudgetMillis the budget factor-based phases resolved against it.
	ServiceP50Micros int64 `json:"service_p50_us,omitempty"`
	BudgetMillis     int64 `json:"budget_ms,omitempty"`
	// MDMSpans totals the trace spans the rig MDMs collected — the
	// tracing-coverage signal E17 asserts on.
	MDMSpans      int                 `json:"mdm_spans,omitempty"`
	Phases        []PhaseReport       `json:"phases"`
	Registrations []RegistrationAudit `json:"registrations,omitempty"`
	Assertions    []AssertionResult   `json:"assertions,omitempty"`
	// Pass is true when every assertion held.
	Pass bool `json:"pass"`
}

// Phase returns the named phase report, or nil.
func (r *Report) Phase(name string) *PhaseReport {
	for i := range r.Phases {
		if r.Phases[i].Name == name {
			return &r.Phases[i]
		}
	}
	return nil
}

// Table renders the report in the EXPERIMENTS.md house style.
func (r *Report) Table() *metrics.Table {
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	t := metrics.NewTable(
		fmt.Sprintf("scenario %s — seed %d, %d assertions: %s", r.Scenario, r.Seed, len(r.Assertions), verdict),
		"phase", "rig", "sent", "ok", "shed", "expired", "errors", "p50", "p95", "thru/s", "good/s", "cpu", "goroutines")
	for _, p := range r.Phases {
		t.AddRow(p.Name, p.Rig, p.Sent, p.InBudget, p.Shed, p.Expired, p.Errors,
			time.Duration(p.P50Micros)*time.Microsecond,
			time.Duration(p.P95Micros)*time.Microsecond,
			fmt.Sprintf("%.0f", p.ThroughputPerSec),
			fmt.Sprintf("%.0f", p.GoodputPerSec),
			fmt.Sprintf("%dms", p.Resources.CPUMillis),
			p.Resources.Goroutines)
	}
	return t
}

// WriteReport writes the report as indented JSON.
func WriteReport(r *Report, path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadReport loads a committed report.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// CheckRegression gates a fresh run against a committed baseline: the
// two must be runs of the same scenario, every baseline phase must be
// present, every assertion of the fresh run must pass (scenario
// assertions encode the machine-independent within-run ratios, so they
// are the regression surface), and the fresh run must evaluate at least
// as many assertions as the baseline did (a scenario edit that silently
// dropped its gates fails here). Returns nil when acceptable.
func CheckRegression(baseline, current *Report) error {
	if baseline != nil && baseline.Scenario != current.Scenario {
		return fmt.Errorf("scenario regression: baseline is a run of %q, current run is %q — wrong -check file for this scenario",
			baseline.Scenario, current.Scenario)
	}
	var problems []string
	if baseline != nil {
		for _, bp := range baseline.Phases {
			if current.Phase(bp.Name) == nil {
				problems = append(problems, fmt.Sprintf("phase %q missing from current run", bp.Name))
			}
		}
		if len(current.Assertions) < len(baseline.Assertions) {
			problems = append(problems, fmt.Sprintf(
				"current run evaluated %d assertions, baseline had %d",
				len(current.Assertions), len(baseline.Assertions)))
		}
	}
	for _, a := range current.Assertions {
		if !a.Pass {
			problems = append(problems, fmt.Sprintf("%s(%s): %s", a.Kind, a.Target, a.Detail))
		}
	}
	if len(problems) == 0 {
		return nil
	}
	msg := "scenario regression:"
	for _, p := range problems {
		msg += "\n  - " + p
	}
	return fmt.Errorf("%s", msg)
}
