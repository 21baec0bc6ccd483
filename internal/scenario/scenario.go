// Package scenario is the unified experiment harness the paper's
// conclusion calls for ("the development of testbeds and benchmarks"): a
// declarative scenario engine that builds converged-network topologies
// (MDMs, data stores, fault-injected links), drives mixed workloads
// (resolve/chain/recruit/fetch/sync/reach-me) through phases on a
// timeline, samples host resources per phase, and evaluates assertions
// (p95 ceilings, goodput-retention floors, durability checks) at the end
// of the run.
//
// A scenario is a small YAML-subset file (see decode.go; no external
// dependencies) declaring a topology, a phase list, and assertions. The
// engine is the only home of the system-level experiments (E16, E17,
// E19–E23): each is a committed file under scenarios/, so composing a new
// one — an overload wave during a store blackout under a thundering-herd
// re-registration, say — is a scenario file, not a new harness.
package scenario

import (
	"fmt"
	"time"
)

// Layouts assign profile data to stores.
const (
	// LayoutSplit is the E16 topology: one user ("u") whose address book
	// is split across every store by item type, so a referral resolve
	// fans out to all stores and a chaining resolve gathers all pieces.
	LayoutSplit = "split"
	// LayoutSharded is the E19/E20 topology: Users distinct owners, each
	// owner's profile held whole by store (i mod Stores).
	LayoutSharded = "sharded"
)

// Profiles pick how much of a user's profile a rig seeds.
const (
	// ProfileBook seeds only the address book (the resolve benchmarks).
	ProfileBook = "book"
	// ProfileFull adds presence, devices, calendar and reach-me
	// preferences, enabling the sync and reach-me workload verbs.
	ProfileFull = "full"
)

// Workload verbs.
const (
	VerbResolve  = "resolve"  // through the MDM (pattern picks the query plan)
	VerbFetch    = "fetch"    // direct store fetch with a signed query
	VerbSync     = "sync"     // SyncML fast sync against the owning store
	VerbReachMe  = "reachme"  // the reach-me decision over the full profile
	VerbRegister = "register" // a fresh coverage registration (directory mutation)
)

// User-selection modes for workload entries.
const (
	UsersHot        = "hot"        // always the first user (cache-hot path)
	UsersRoundRobin = "roundrobin" // request i targets user i mod n
	UsersZipf       = "zipf"       // Zipf(1.2)-skewed draw
	UsersUniform    = "uniform"    // uniform draw
)

// Assertion kinds.
const (
	AssertP95Ceiling       = "p95-ceiling"
	AssertGoodputFloor     = "goodput-floor"
	AssertThroughputRatio  = "throughput-ratio-floor"
	AssertRetentionFloor   = "retention-floor"
	AssertRetentionCeiling = "retention-ceiling"
	AssertShedFloor        = "shed-floor"
	AssertErrorCeiling     = "error-ceiling"
	AssertZeroLostCoverage = "zero-lost-registrations"
	AssertFailoverCeiling  = "failover-ceiling"
	AssertMovedOwnersFloor = "moved-owners-floor"
	AssertRepairCeiling    = "repair-ceiling"
	AssertConvergence      = "convergence"
	AssertPairedP95Ceiling = "paired-p95-ceiling"
	AssertMDMSpansFloor    = "mdm-spans-floor"
)

// Scenario is one declarative experiment: a topology, phases on a
// timeline, and end-of-run assertions.
type Scenario struct {
	Name        string
	Description string
	// Seed is the root of every random draw in the run: workload
	// schedules, Zipf populations and fault-proxy RNGs all derive from it
	// (see schedule.go), so two runs of the same scenario with the same
	// seed issue identical request sequences.
	Seed     int64
	Topology Topology
	Phases   []Phase
	Asserts  []Assertion
}

// Topology is the set of rigs a scenario builds. Rigs are built and torn
// down sequentially in declaration order; each rig runs the phases that
// name it, in phase order.
type Topology struct {
	Rigs []RigSpec
}

// RigSpec declares one rig: an MDM fronting a set of stores, with
// fault-injectable links.
type RigSpec struct {
	Name   string
	Layout string // LayoutSplit or LayoutSharded
	// Stores is the store count (the batch width in LayoutSplit).
	Stores int
	// Users is the owner population (LayoutSharded; LayoutSplit has 1).
	Users int
	// SizeBytes sizes each address-book payload.
	SizeBytes int
	// CacheEntries sizes the MDM component cache (0 = off).
	CacheEntries int
	// Baseline configures the pre-pipeline MDM and clients: coalescing
	// off, fan-out 1, client-side coalescing off — the E16 ablation.
	Baseline bool
	// DisableCoalescing turns off only in-flight coalescing (E19 uses it
	// so every resolve is one real fetch over the choke link).
	DisableCoalescing bool
	// RetryAttempts and PerAttempt parameterize the MDM's retry policy;
	// zero keeps the core defaults.
	RetryAttempts int
	PerAttempt    time.Duration
	// MaxConcurrency and QueueDepth enable admission control at the MDM.
	MaxConcurrency int
	QueueDepth     int
	// LeaseTTL/LeaseGrace enable store-liveness leases.
	LeaseTTL   time.Duration
	LeaseGrace time.Duration
	// Heartbeats runs a registrar per store (interval TTL/2) so leases
	// stay renewed until a fault silences the store.
	Heartbeats bool
	// Replicas, when >= 2, makes the rig a quorum-replicated MDM
	// constellation instead of a single MDM: Replicas members with
	// temp-dir journals, one elected leader shipping its log, mutations
	// acked at Quorum (0 = majority). ElectionTTL is the leader lease;
	// failover after a leader kill completes within one TTL.
	Replicas    int
	Quorum      int
	ElectionTTL time.Duration
	// Shards, when >= 2, makes the rig a partitioned directory instead of
	// a single MDM: Shards independent MDM slices behind a consistent-hash
	// ring over the owner keyspace, each wrapped in a routing shard node.
	// Workload resolves ride a shard-aware client that routes by owner and
	// chases wrong-shard redirects. SpareShards builds that many extra
	// shards outside the initial map — the expansion targets a mid-phase
	// rebalance (Phase.RebalanceAfter) grows onto.
	Shards      int
	SpareShards int
	// AutoRepair arms the self-healing constellation on a sharded rig:
	// every shard runs a gossip failure detector (health.Agent) and the
	// acting coordinator repairs a confirmed shard death automatically —
	// promoting spares and bumping the map's repair epoch. GossipInterval
	// and SuspectTimeout tune the detector (zero keeps package defaults).
	AutoRepair     bool
	GossipInterval time.Duration
	SuspectTimeout time.Duration
	// ShardLinks fronts every shard with a fault proxy so phases can
	// partition shards (Phase.PartitionAfter). Gossip, repair traffic and
	// client resolves all ride the proxies.
	ShardLinks *LinkSpec
	// Profile is ProfileBook (default) or ProfileFull.
	Profile string
	// Links declares the fault-injection proxies of the rig.
	Links LinkSet
}

// LinkSet names the injectable links of a rig. A nil spec means a bare
// TCP connection (no proxy).
type LinkSet struct {
	// MDM fronts the MDM for clients.
	MDM *LinkSpec
	// Stores is the default spec for every MDM/client→store link.
	Stores *LinkSpec
	// PerStore overrides the default for named stores ("store-0", …).
	PerStore map[string]*LinkSpec
}

// LinkSpec is the initial fault configuration of one link.
type LinkSpec struct {
	Latency   time.Duration
	Jitter    time.Duration
	Bandwidth int // bytes/sec; 0 = unlimited
}

// Phase is one step on the scenario timeline. Exactly one of Calibrate,
// Rounds (closed loop) or Rate+Duration (open loop) drives it.
type Phase struct {
	Name string
	Rig  string
	// Calibrate, when > 0, makes this a calibration phase: that many
	// sequential chaining resolves measure the unloaded service p50; the
	// first calibration of a run fixes the capacity that "Nx" rates and
	// budgets resolve against (later calibrations only warm their rig).
	Calibrate int
	// Clients is the closed-loop concurrency (goroutines, each on its own
	// connection); Rounds the per-client iteration count.
	Clients int
	Rounds  int
	// Rate and Duration drive an open-loop phase: Rate requests/sec are
	// issued for Duration, spread over Conns connections, regardless of
	// completions.
	Rate     Rate
	Duration time.Duration
	Conns    int
	// Budget is the per-request deadline; zero means none (a liveness
	// bound still applies). Stamped=false measures the budget by wall
	// clock only, emulating a pre-budget client.
	Budget  Budget
	Stamped *bool
	// Trace toggles client-side tracing for the phase; nil keeps the
	// default (on). The tracing-overhead experiment (E17) flips it.
	Trace *bool
	// Faults are applied to links at phase start, in order.
	Faults []FaultSpec
	// Reregister fires a re-registration storm at phase start: every
	// named store (or every dead store, with the single entry "all-dead")
	// replays its whole coverage concurrently — the thundering herd.
	Reregister []string
	// KillLeaderAfter, on a replicated rig's open-loop phase, kills the
	// constellation's leader that long into the phase (mid-storm) and
	// measures how long the surviving members take to elect a
	// replacement; the duration lands in PhaseReport.FailoverMillis.
	KillLeaderAfter time.Duration
	// RebalanceAfter, on a sharded rig's open-loop phase, expands the
	// shard map onto the rig's spare shards that long into the phase —
	// a live rebalance under fire. The wall time lands in
	// PhaseReport.RebalanceMillis and the count of owners whose home
	// shard changed in PhaseReport.MovedOwners.
	RebalanceAfter time.Duration
	// KillShardAfter, on an auto-repair rig's open-loop phase, hard-kills
	// the named shard (KillShard) that long into the phase and waits for
	// the constellation's gossip detector to confirm the death and the
	// repair to complete; the fault-to-repaired wall time lands in
	// PhaseReport.RepairMillis and the repaired map's epoch in
	// PhaseReport.RepairEpoch.
	KillShardAfter time.Duration
	KillShard      string
	// PartitionAfter imposes a one-way partition on the named shard
	// (PartitionShard): inbound requests still land but its replies
	// vanish, so the majority confirms it dead while it still believes
	// everyone else alive — the asymmetric split-brain case. The engine
	// waits for the repair, then lifts the partition PartitionHealAfter
	// after it was imposed; the fenced minority must converge onto the
	// repaired epoch (the convergence assertion).
	PartitionAfter     time.Duration
	PartitionShard     string
	PartitionHealAfter time.Duration
	// Mix is the phase's workload: each request draws an entry by weight.
	Mix []MixEntry
}

// Rate is an open-loop request rate: absolute (PerSec) or a multiple of
// the calibrated capacity (Factor, from "0.8x").
type Rate struct {
	PerSec float64
	Factor float64
}

// IsZero reports an unset rate.
func (r Rate) IsZero() bool { return r.PerSec == 0 && r.Factor == 0 }

// Budget is a per-request deadline: absolute, or Factor × the calibrated
// service p50, clamped to [100ms, 1s] (the E19 derivation).
type Budget struct {
	Duration time.Duration
	Factor   float64
}

// IsZero reports an unset budget.
func (b Budget) IsZero() bool { return b.Duration == 0 && b.Factor == 0 }

// MixEntry is one weighted workload component.
type MixEntry struct {
	Verb string
	// Pattern picks the MDM query plan for VerbResolve: "referral",
	// "chaining" or "recruiting" (wire.QueryPattern values).
	Pattern string
	// Batch resolves every split path in one batch-resolve frame
	// (VerbResolve + referral on LayoutSplit).
	Batch bool
	// Users is the target-selection mode; default UsersRoundRobin.
	Users  string
	Weight int
}

// FaultSpec is one link mutation at phase start. Nil fields keep the
// link's current setting.
type FaultSpec struct {
	Link      string
	Latency   *time.Duration
	Jitter    *time.Duration
	Bandwidth *int
	// Blackout darkens the link and silences the store's heartbeats (a
	// dead store neither serves nor renews its lease). Restoring the link
	// does not resurrect heartbeats — that is what a Reregister herd is
	// for.
	Blackout *bool
}

// Assertion is one end-of-run check against the report.
type Assertion struct {
	Kind string
	// Phase targets single-phase kinds; Num/Den the ratio kinds. For
	// paired-p95-ceiling it is the stem shared by the wave phases
	// "w<k>-<stem>-off" / "w<k>-<stem>-on".
	Phase    string
	Num, Den string
	// Max bounds p95-ceiling.
	Max time.Duration
	// Min floors goodput-floor (per-sec), throughput-ratio-floor,
	// retention-floor, shed-floor, moved-owners-floor and mdm-spans-floor.
	Min float64
	// MaxRatio caps retention-ceiling and paired-p95-ceiling; MaxCount
	// caps error-ceiling.
	MaxRatio float64
	MaxCount int
}

// Validate checks cross-references and enumerations, returning the first
// problem found.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("scenario: name is required")
	}
	if len(sc.Topology.Rigs) == 0 {
		return fmt.Errorf("scenario %s: topology declares no rigs", sc.Name)
	}
	rigs := map[string]*RigSpec{}
	for i := range sc.Topology.Rigs {
		r := &sc.Topology.Rigs[i]
		if r.Name == "" {
			return fmt.Errorf("scenario %s: rig %d has no name", sc.Name, i)
		}
		if _, dup := rigs[r.Name]; dup {
			return fmt.Errorf("scenario %s: duplicate rig %q", sc.Name, r.Name)
		}
		rigs[r.Name] = r
		if err := r.validate(sc.Name); err != nil {
			return err
		}
	}
	if len(sc.Phases) == 0 {
		return fmt.Errorf("scenario %s: no phases", sc.Name)
	}
	phases := map[string]bool{}
	for i := range sc.Phases {
		p := &sc.Phases[i]
		if p.Name == "" {
			return fmt.Errorf("scenario %s: phase %d has no name", sc.Name, i)
		}
		if phases[p.Name] {
			return fmt.Errorf("scenario %s: duplicate phase %q", sc.Name, p.Name)
		}
		phases[p.Name] = true
		rig, ok := rigs[p.Rig]
		if !ok {
			return fmt.Errorf("scenario %s: phase %q references unknown rig %q", sc.Name, p.Name, p.Rig)
		}
		if err := p.validate(sc.Name, rig); err != nil {
			return err
		}
	}
	for i := range sc.Asserts {
		if err := sc.Asserts[i].validate(sc.Name, phases); err != nil {
			return fmt.Errorf("assertion %d: %w", i, err)
		}
	}
	return nil
}

func (r *RigSpec) validate(sc string) error {
	switch r.Layout {
	case LayoutSplit, LayoutSharded:
	case "":
		return fmt.Errorf("scenario %s: rig %s: layout is required (split or sharded)", sc, r.Name)
	default:
		return fmt.Errorf("scenario %s: rig %s: unknown layout %q", sc, r.Name, r.Layout)
	}
	if r.Stores <= 0 {
		return fmt.Errorf("scenario %s: rig %s: stores must be positive", sc, r.Name)
	}
	if r.Layout == LayoutSharded && r.Users <= 0 {
		return fmt.Errorf("scenario %s: rig %s: sharded layout needs users", sc, r.Name)
	}
	switch r.Profile {
	case "", ProfileBook, ProfileFull:
	default:
		return fmt.Errorf("scenario %s: rig %s: unknown profile %q", sc, r.Name, r.Profile)
	}
	if r.Heartbeats && r.LeaseTTL <= 0 {
		return fmt.Errorf("scenario %s: rig %s: heartbeats need lease-ttl", sc, r.Name)
	}
	if r.Replicas == 1 || r.Replicas < 0 {
		return fmt.Errorf("scenario %s: rig %s: replicas must be 0 (single MDM) or >= 2", sc, r.Name)
	}
	if r.Replicas >= 2 {
		if r.Quorum < 0 || r.Quorum > r.Replicas {
			return fmt.Errorf("scenario %s: rig %s: quorum must be between 0 (majority) and replicas", sc, r.Name)
		}
		if r.Heartbeats {
			return fmt.Errorf("scenario %s: rig %s: replicated rigs seed coverage through the leader, not store registrars", sc, r.Name)
		}
		if r.Links.MDM != nil {
			return fmt.Errorf("scenario %s: rig %s: replicated rigs have no single mdm link to proxy", sc, r.Name)
		}
	}
	if r.Shards == 1 || r.Shards < 0 {
		return fmt.Errorf("scenario %s: rig %s: shards must be 0 (single MDM) or >= 2", sc, r.Name)
	}
	if r.SpareShards < 0 || (r.SpareShards > 0 && r.Shards < 2) {
		return fmt.Errorf("scenario %s: rig %s: spare-shards need a sharded rig (shards >= 2)", sc, r.Name)
	}
	if r.Shards >= 2 {
		if r.Layout != LayoutSharded {
			return fmt.Errorf("scenario %s: rig %s: a sharded directory needs the sharded layout", sc, r.Name)
		}
		if r.Replicas >= 2 {
			return fmt.Errorf("scenario %s: rig %s: shards and replicas are separate rig kinds", sc, r.Name)
		}
		if r.Heartbeats {
			return fmt.Errorf("scenario %s: rig %s: sharded rigs seed coverage in-process, not through store registrars", sc, r.Name)
		}
		if r.Links.MDM != nil {
			return fmt.Errorf("scenario %s: rig %s: sharded rigs have no single mdm link to proxy", sc, r.Name)
		}
	}
	if (r.AutoRepair || r.ShardLinks != nil) && r.Shards < 2 {
		return fmt.Errorf("scenario %s: rig %s: auto-repair and shard-links need a sharded rig (shards >= 2)", sc, r.Name)
	}
	if (r.GossipInterval > 0 || r.SuspectTimeout > 0) && !r.AutoRepair {
		return fmt.Errorf("scenario %s: rig %s: gossip-interval and suspect-timeout need auto-repair", sc, r.Name)
	}
	for name := range r.Links.PerStore {
		if storeIndex(name) < 0 || storeIndex(name) >= r.Stores {
			return fmt.Errorf("scenario %s: rig %s: link %q names no store", sc, r.Name, name)
		}
	}
	return nil
}

func (p *Phase) validate(sc string, rig *RigSpec) error {
	modes := 0
	if p.Calibrate > 0 {
		modes++
	}
	if p.Rounds > 0 {
		modes++
	}
	if !p.Rate.IsZero() {
		modes++
		if p.Duration <= 0 {
			return fmt.Errorf("scenario %s: phase %s: open-loop rate needs a duration", sc, p.Name)
		}
	}
	if modes != 1 {
		return fmt.Errorf("scenario %s: phase %s: exactly one of calibrate, rounds or rate must be set", sc, p.Name)
	}
	if p.Rounds > 0 && p.Clients <= 0 {
		return fmt.Errorf("scenario %s: phase %s: closed loop needs clients", sc, p.Name)
	}
	if rig.Replicas >= 2 && p.Rounds > 0 {
		return fmt.Errorf("scenario %s: phase %s: replicated rigs drive open-loop (or calibrate) phases only", sc, p.Name)
	}
	if rig.Shards >= 2 && p.Rounds > 0 {
		return fmt.Errorf("scenario %s: phase %s: sharded rigs drive open-loop (or calibrate) phases only", sc, p.Name)
	}
	if p.KillLeaderAfter > 0 {
		if rig.Replicas < 2 {
			return fmt.Errorf("scenario %s: phase %s: kill-leader-after needs a replicated rig (replicas >= 2)", sc, p.Name)
		}
		if p.Rate.IsZero() {
			return fmt.Errorf("scenario %s: phase %s: kill-leader-after needs an open-loop phase", sc, p.Name)
		}
		if p.KillLeaderAfter >= p.Duration {
			return fmt.Errorf("scenario %s: phase %s: kill-leader-after must fall inside the phase duration", sc, p.Name)
		}
	}
	if p.RebalanceAfter > 0 {
		if rig.Shards < 2 || rig.SpareShards < 1 {
			return fmt.Errorf("scenario %s: phase %s: rebalance-after needs a sharded rig with spare-shards", sc, p.Name)
		}
		if p.Rate.IsZero() {
			return fmt.Errorf("scenario %s: phase %s: rebalance-after needs an open-loop phase", sc, p.Name)
		}
		if p.RebalanceAfter >= p.Duration {
			return fmt.Errorf("scenario %s: phase %s: rebalance-after must fall inside the phase duration", sc, p.Name)
		}
	}
	if (p.KillShardAfter > 0) != (p.KillShard != "") {
		return fmt.Errorf("scenario %s: phase %s: kill-shard-after and kill-shard go together", sc, p.Name)
	}
	if (p.PartitionAfter > 0) != (p.PartitionShard != "") {
		return fmt.Errorf("scenario %s: phase %s: partition-after and partition-shard go together", sc, p.Name)
	}
	if p.PartitionHealAfter > 0 && p.PartitionAfter == 0 {
		return fmt.Errorf("scenario %s: phase %s: partition-heal-after needs partition-after", sc, p.Name)
	}
	checkShardFault := func(what, target string, after time.Duration) error {
		if !rig.AutoRepair {
			return fmt.Errorf("scenario %s: phase %s: %s needs an auto-repair rig", sc, p.Name, what)
		}
		if p.Rate.IsZero() {
			return fmt.Errorf("scenario %s: phase %s: %s needs an open-loop phase", sc, p.Name, what)
		}
		if after >= p.Duration {
			return fmt.Errorf("scenario %s: phase %s: %s must fall inside the phase duration", sc, p.Name, what)
		}
		idx := shardIndex(target)
		if idx < 1 || idx >= rig.Shards {
			// shard-0 is the rig's bootstrap/audit alias and must survive;
			// spares are not in the initial map, so killing one repairs
			// nothing.
			return fmt.Errorf("scenario %s: phase %s: %s targets %q, want an initial-map shard other than shard-0", sc, p.Name, what, target)
		}
		return nil
	}
	if p.KillShardAfter > 0 {
		if err := checkShardFault("kill-shard-after", p.KillShard, p.KillShardAfter); err != nil {
			return err
		}
	}
	if p.PartitionAfter > 0 {
		if rig.ShardLinks == nil {
			return fmt.Errorf("scenario %s: phase %s: partition-after needs shard-links on the rig", sc, p.Name)
		}
		if err := checkShardFault("partition-after", p.PartitionShard, p.PartitionAfter); err != nil {
			return err
		}
	}
	if p.Calibrate == 0 && len(p.Mix) == 0 {
		return fmt.Errorf("scenario %s: phase %s: no workload mix", sc, p.Name)
	}
	for i := range p.Mix {
		if err := p.Mix[i].validate(sc, p.Name, rig); err != nil {
			return err
		}
	}
	for _, f := range p.Faults {
		if f.Link != "mdm" && (storeIndex(f.Link) < 0 || storeIndex(f.Link) >= rig.Stores) {
			return fmt.Errorf("scenario %s: phase %s: fault on unknown link %q", sc, p.Name, f.Link)
		}
	}
	for _, s := range p.Reregister {
		if s != "all-dead" && (storeIndex(s) < 0 || storeIndex(s) >= rig.Stores) {
			return fmt.Errorf("scenario %s: phase %s: reregister names unknown store %q", sc, p.Name, s)
		}
	}
	return nil
}

func (m *MixEntry) validate(sc, phase string, rig *RigSpec) error {
	switch m.Verb {
	case VerbResolve:
		switch m.Pattern {
		case "referral", "chaining", "recruiting":
		default:
			return fmt.Errorf("scenario %s: phase %s: resolve needs pattern referral|chaining|recruiting, got %q", sc, phase, m.Pattern)
		}
		if m.Batch && (m.Pattern != "referral" || rig.Layout != LayoutSplit) {
			return fmt.Errorf("scenario %s: phase %s: batch resolves need pattern referral on a split rig", sc, phase)
		}
		if m.Batch && rig.Replicas >= 2 {
			return fmt.Errorf("scenario %s: phase %s: batch resolves are not supported on replicated rigs", sc, phase)
		}
	case VerbFetch, VerbRegister:
	case VerbSync, VerbReachMe:
		if rig.Profile != ProfileFull && m.Verb == VerbReachMe {
			return fmt.Errorf("scenario %s: phase %s: reachme needs profile full", sc, phase)
		}
		if rig.Replicas >= 2 && m.Verb == VerbReachMe {
			return fmt.Errorf("scenario %s: phase %s: reachme is not supported on replicated rigs", sc, phase)
		}
		if rig.Shards >= 2 && m.Verb == VerbReachMe {
			return fmt.Errorf("scenario %s: phase %s: reachme is not supported on sharded rigs", sc, phase)
		}
	default:
		return fmt.Errorf("scenario %s: phase %s: unknown verb %q", sc, phase, m.Verb)
	}
	switch m.Users {
	case "", UsersHot, UsersRoundRobin, UsersZipf, UsersUniform:
	default:
		return fmt.Errorf("scenario %s: phase %s: unknown users mode %q", sc, phase, m.Users)
	}
	if m.Weight < 0 {
		return fmt.Errorf("scenario %s: phase %s: negative weight", sc, phase)
	}
	return nil
}

func (a *Assertion) validate(sc string, phases map[string]bool) error {
	need := func(name, field string) error {
		if name == "" {
			return fmt.Errorf("scenario %s: %s: %s is required", sc, a.Kind, field)
		}
		if !phases[name] {
			return fmt.Errorf("scenario %s: %s: unknown phase %q", sc, a.Kind, name)
		}
		return nil
	}
	switch a.Kind {
	case AssertP95Ceiling:
		if a.Max <= 0 {
			return fmt.Errorf("scenario %s: p95-ceiling needs max", sc)
		}
		return need(a.Phase, "phase")
	case AssertGoodputFloor, AssertShedFloor:
		if a.Min <= 0 {
			return fmt.Errorf("scenario %s: %s needs min", sc, a.Kind)
		}
		return need(a.Phase, "phase")
	case AssertErrorCeiling:
		return need(a.Phase, "phase")
	case AssertThroughputRatio, AssertRetentionFloor:
		if a.Min <= 0 {
			return fmt.Errorf("scenario %s: %s needs min", sc, a.Kind)
		}
		if err := need(a.Num, "num"); err != nil {
			return err
		}
		return need(a.Den, "den")
	case AssertRetentionCeiling:
		if a.MaxRatio <= 0 {
			return fmt.Errorf("scenario %s: retention-ceiling needs max", sc)
		}
		if err := need(a.Num, "num"); err != nil {
			return err
		}
		return need(a.Den, "den")
	case AssertZeroLostCoverage:
		return nil
	case AssertFailoverCeiling:
		if a.Max <= 0 {
			return fmt.Errorf("scenario %s: failover-ceiling needs max-duration", sc)
		}
		return need(a.Phase, "phase")
	case AssertMovedOwnersFloor:
		if a.Min <= 0 {
			return fmt.Errorf("scenario %s: moved-owners-floor needs min", sc)
		}
		return need(a.Phase, "phase")
	case AssertRepairCeiling:
		if a.Max <= 0 {
			return fmt.Errorf("scenario %s: repair-ceiling needs max-duration", sc)
		}
		return need(a.Phase, "phase")
	case AssertConvergence:
		return nil
	case AssertPairedP95Ceiling:
		if a.MaxRatio <= 0 {
			return fmt.Errorf("scenario %s: paired-p95-ceiling needs max", sc)
		}
		for name := range phases {
			if on, ok := wavePair(name, a.Phase); ok && phases[on] {
				return nil
			}
		}
		return fmt.Errorf("scenario %s: paired-p95-ceiling: no w<k>-%s-off/-on phase pair", sc, a.Phase)
	case AssertMDMSpansFloor:
		if a.Min <= 0 {
			return fmt.Errorf("scenario %s: mdm-spans-floor needs min", sc)
		}
		return nil
	default:
		return fmt.Errorf("scenario %s: unknown assertion kind %q", sc, a.Kind)
	}
}

// wavePair reports whether name is the "w<k>-<stem>-off" half of an
// interleaved wave pair, returning its "-on" twin's name.
func wavePair(name, stem string) (on string, ok bool) {
	var k int
	if n, err := fmt.Sscanf(name, "w%d-", &k); err != nil || n != 1 || k < 0 {
		return "", false
	}
	prefix := fmt.Sprintf("w%d-%s-", k, stem)
	if name != prefix+"off" {
		return "", false
	}
	return prefix + "on", true
}

// storeIndex parses "store-3" → 3, or -1.
func storeIndex(name string) int {
	var i int
	if n, err := fmt.Sscanf(name, "store-%d", &i); err != nil || n != 1 || i < 0 {
		return -1
	}
	return i
}

// shardIndex parses "shard-2" → 2, or -1.
func shardIndex(name string) int {
	var i int
	if n, err := fmt.Sscanf(name, "shard-%d", &i); err != nil || n != 1 || i < 0 {
		return -1
	}
	return i
}
