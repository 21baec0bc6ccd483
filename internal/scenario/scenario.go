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

// Event actions: what a phase's timeline can do to the rig.
const (
	ActionLink       = "link"       // set a link's latency, jitter, bandwidth or blackout
	ActionReregister = "reregister" // a store (or every dead one) replays its coverage
	ActionKill       = "kill"       // hard-kill the leader or a shard
	ActionPartition  = "partition"  // sever a shard's replies one-way
	ActionRebalance  = "rebalance"  // expand the shard map onto the spares
)

// The structs below are the scenario file's schema: a field's yaml tag is
// its key (decode.go walks the tags; a field without one is not settable
// from a file).

// Scenario is one declarative experiment: a topology, phases on a
// timeline, and end-of-run assertions.
type Scenario struct {
	Name        string `yaml:"name"`
	Description string `yaml:"description"`
	// Seed is the root of every random draw in the run: workload
	// schedules, Zipf populations and fault-proxy RNGs all derive from it
	// (see schedule.go), so two runs of the same scenario with the same
	// seed issue identical request sequences.
	Seed     int64       `yaml:"seed"`
	Topology Topology    `yaml:"topology"`
	Phases   []Phase     `yaml:"phases"`
	Asserts  []Assertion `yaml:"assertions"`
}

// Topology is the set of rigs a scenario builds. Rigs are built and torn
// down sequentially in declaration order; each rig runs the phases that
// name it, in phase order.
type Topology struct {
	Rigs []RigSpec `yaml:"rigs"`
}

// RigSpec declares one rig: a directory fronting a set of stores, with
// fault-injectable links. The directory is S shards × R members (see
// shape): Shards and Replicas compose, and a plain MDM is the 1×1 corner.
type RigSpec struct {
	Name   string `yaml:"name"`
	Layout string `yaml:"layout"` // LayoutSplit or LayoutSharded
	// Stores is the store count (the batch width in LayoutSplit).
	Stores int `yaml:"stores"`
	// Users is the owner population (LayoutSharded; LayoutSplit has 1).
	Users int `yaml:"users"`
	// SizeBytes sizes each address-book payload.
	SizeBytes int `yaml:"size-bytes"`
	// CacheEntries sizes the MDM component cache (0 = off).
	CacheEntries int `yaml:"cache-entries"`
	// Baseline configures the pre-pipeline MDM and clients: coalescing
	// off, fan-out 1, client-side coalescing off — the E16 ablation.
	Baseline bool `yaml:"baseline"`
	// DisableCoalescing turns off only in-flight coalescing (E19 uses it
	// so every resolve is one real fetch over the choke link).
	DisableCoalescing bool `yaml:"disable-coalescing"`
	// RetryAttempts and PerAttempt parameterize the MDM's retry policy;
	// zero keeps the core defaults.
	RetryAttempts int           `yaml:"retry-attempts"`
	PerAttempt    time.Duration `yaml:"per-attempt"`
	// MaxConcurrency and QueueDepth enable admission control at the MDM.
	MaxConcurrency int `yaml:"max-concurrency"`
	QueueDepth     int `yaml:"queue-depth"`
	// LeaseTTL/LeaseGrace enable store-liveness leases.
	LeaseTTL   time.Duration `yaml:"lease-ttl"`
	LeaseGrace time.Duration `yaml:"lease-grace"`
	// Heartbeats runs a registrar per store (interval TTL/2) so leases
	// stay renewed until a fault silences the store.
	Heartbeats bool `yaml:"heartbeats"`
	// Replicas, when >= 2, makes every shard a quorum-replicated
	// constellation: Replicas members with temp-dir journals, one elected
	// leader shipping its log, mutations acked at Quorum (0 = majority).
	// ElectionTTL is the leader lease; failover after a leader kill
	// completes within one TTL.
	Replicas    int           `yaml:"replicas"`
	Quorum      int           `yaml:"quorum"`
	ElectionTTL time.Duration `yaml:"election-ttl"`
	// Shards, when >= 2, partitions the directory: Shards independent
	// slices behind a consistent-hash ring over the owner keyspace, each
	// wrapped in a routing shard node (and each replicated when Replicas
	// is). Workload resolves ride a shard-aware client that routes by owner
	// and chases wrong-shard redirects. SpareShards builds that many extra
	// shards outside the initial map — the expansion targets a mid-phase
	// rebalance event grows onto.
	Shards      int `yaml:"shards"`
	SpareShards int `yaml:"spare-shards"`
	// AutoRepair arms the self-healing constellation on a sharded rig:
	// every shard runs a gossip failure detector (health.Agent) and the
	// acting coordinator repairs a confirmed shard death automatically —
	// promoting spares and bumping the map's repair epoch. GossipInterval
	// and SuspectTimeout tune the detector (zero keeps package defaults).
	AutoRepair     bool          `yaml:"auto-repair"`
	GossipInterval time.Duration `yaml:"gossip-interval"`
	SuspectTimeout time.Duration `yaml:"suspect-timeout"`
	// ShardLinks fronts every shard with a fault proxy so a partition
	// event has a link to sever. Gossip, repair traffic and client
	// resolves all ride the proxies.
	ShardLinks *LinkSpec `yaml:"shard-links"`
	// Profile is ProfileBook (default) or ProfileFull.
	Profile string `yaml:"profile"`
	// Links declares the fault-injection proxies of the rig.
	Links LinkSet `yaml:"links"`
}

// LinkSet names the injectable links of a rig. A nil spec means a bare
// TCP connection (no proxy).
type LinkSet struct {
	// MDM fronts the MDM for clients.
	MDM *LinkSpec `yaml:"mdm"`
	// Stores is the default spec for every MDM/client→store link.
	Stores *LinkSpec `yaml:"stores"`
	// PerStore overrides the default for named stores ("store-0", …).
	PerStore map[string]*LinkSpec `yaml:"store-*"`
}

// LinkSpec is the initial fault configuration of one link.
type LinkSpec struct {
	Latency   time.Duration `yaml:"latency"`
	Jitter    time.Duration `yaml:"jitter"`
	Bandwidth int           `yaml:"bandwidth"` // bytes/sec; 0 = unlimited
}

// Phase is one step on the scenario timeline. Exactly one of Calibrate,
// Rounds (closed loop) or Rate+Duration (open loop) drives it.
type Phase struct {
	Name string `yaml:"name"`
	Rig  string `yaml:"rig"`
	// Calibrate, when > 0, makes this a calibration phase: that many
	// sequential chaining resolves measure the unloaded service p50; the
	// first calibration of a run fixes the capacity that "Nx" rates and
	// budgets resolve against (later calibrations only warm their rig).
	Calibrate int `yaml:"calibrate"`
	// Clients is the closed-loop concurrency (goroutines, each on its own
	// connection); Rounds the per-client iteration count.
	Clients int `yaml:"clients"`
	Rounds  int `yaml:"rounds"`
	// Rate and Duration drive an open-loop phase: Rate requests/sec are
	// issued for Duration, spread over Conns connections, regardless of
	// completions.
	Rate     Rate          `yaml:"rate"`
	Duration time.Duration `yaml:"duration"`
	Conns    int           `yaml:"conns"`
	// Budget is the per-request deadline; zero means none (a liveness
	// bound still applies). Stamped=false measures the budget by wall
	// clock only, emulating a pre-budget client.
	Budget  Budget `yaml:"budget"`
	Stamped *bool  `yaml:"stamped"`
	// Trace toggles client-side tracing for the phase; nil keeps the
	// default (on). The tracing-overhead experiment (E17) flips it.
	Trace *bool `yaml:"trace"`
	// Events is the phase's fault timeline (see Event); the engine fires
	// them in At order whatever order the file lists them in.
	Events []Event `yaml:"events"`
	// Mix is the phase's workload: each request draws an entry by weight.
	Mix []MixEntry `yaml:"mix"`
}

// Event is one entry on a phase's timeline: At into the phase, Action is
// applied to Target. Link events at 0 land before the phase's first
// request; every other event runs beside the load. An event past 0 needs
// an open-loop phase and must fall inside its duration.
//
//	link        mdm | store-N      Latency, Jitter, Bandwidth, Blackout
//	reregister  store-N | all-dead the thundering herd; failures count as Errors
//	kill        leader             time to a new leader → FailoverMillis
//	kill        shard-K            time to auto-repair → RepairMillis, RepairEpoch
//	partition   shard-K            one-way; as kill shard-K, healed HealAfter later
//	rebalance   —                  onto the spares → RebalanceMillis, MovedOwners
type Event struct {
	At     time.Duration `yaml:"at"`
	Action string        `yaml:"action"`
	Target string        `yaml:"target"`
	// Link settings; nil keeps the link's current value. Blackout darkens
	// the link and silences the store's heartbeats (a dead store neither
	// serves nor renews its lease). Restoring the link does not resurrect
	// heartbeats — that is what a reregister event is for.
	Latency   *time.Duration `yaml:"latency"`
	Jitter    *time.Duration `yaml:"jitter"`
	Bandwidth *int           `yaml:"bandwidth"`
	Blackout  *bool          `yaml:"blackout"`
	// HealAfter lifts a partition that long after it was imposed, but
	// never before the repair it provoked has landed: the fenced minority
	// must converge onto the repaired epoch (the convergence assertion).
	// Zero leaves the partition in place.
	HealAfter time.Duration `yaml:"heal-after"`
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
	Verb string `yaml:"verb"`
	// Pattern picks the MDM query plan for VerbResolve: "referral",
	// "chaining" or "recruiting" (wire.QueryPattern values).
	Pattern string `yaml:"pattern"`
	// Batch resolves every split path in one batch-resolve frame
	// (VerbResolve + referral on LayoutSplit).
	Batch bool `yaml:"batch"`
	// Users is the target-selection mode; default UsersRoundRobin.
	Users  string `yaml:"users"`
	Weight int    `yaml:"weight,default=1"`
}

// Assertion is one end-of-run check against the report.
type Assertion struct {
	Kind string `yaml:"kind"`
	// Phase targets single-phase kinds; Num/Den the ratio kinds. For
	// paired-p95-ceiling it is the stem shared by the wave phases
	// "w<k>-<stem>-off" / "w<k>-<stem>-on".
	Phase string `yaml:"phase"`
	Num   string `yaml:"num"`
	Den   string `yaml:"den"`
	// Max bounds p95-ceiling.
	Max time.Duration `yaml:"max-duration"`
	// Min floors goodput-floor (per-sec), throughput-ratio-floor,
	// retention-floor, shed-floor, moved-owners-floor and mdm-spans-floor.
	Min float64 `yaml:"min"`
	// MaxRatio caps retention-ceiling and paired-p95-ceiling; MaxCount
	// caps error-ceiling.
	MaxRatio float64 `yaml:"max"`
	MaxCount int     `yaml:"max-count"`
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
	if r.Replicas >= 2 && (r.Quorum < 0 || r.Quorum > r.Replicas) {
		return fmt.Errorf("scenario %s: rig %s: quorum must be between 0 (majority) and replicas", sc, r.Name)
	}
	if r.constellation() && r.Heartbeats {
		return fmt.Errorf("scenario %s: rig %s: replicated and sharded rigs seed coverage in-process, not through store registrars", sc, r.Name)
	}
	if r.constellation() && r.Links.MDM != nil {
		return fmt.Errorf("scenario %s: rig %s: replicated and sharded rigs have no single mdm link to proxy", sc, r.Name)
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
	}
	if (r.AutoRepair || r.ShardLinks != nil) && r.Shards < 2 {
		return fmt.Errorf("scenario %s: rig %s: auto-repair and shard-links need a sharded rig (shards >= 2)", sc, r.Name)
	}
	if (r.GossipInterval > 0 || r.SuspectTimeout > 0) && !r.AutoRepair {
		return fmt.Errorf("scenario %s: rig %s: gossip-interval and suspect-timeout need auto-repair", sc, r.Name)
	}
	for name := range r.Links.PerStore {
		if !r.hasStore(name) {
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
	if rig.constellation() && p.Rounds > 0 {
		return fmt.Errorf("scenario %s: phase %s: replicated and sharded rigs drive open-loop (or calibrate) phases only", sc, p.Name)
	}
	if p.Calibrate == 0 && len(p.Mix) == 0 {
		return fmt.Errorf("scenario %s: phase %s: no workload mix", sc, p.Name)
	}
	for i := range p.Mix {
		if err := p.Mix[i].validate(sc, p.Name, rig); err != nil {
			return err
		}
	}
	for i := range p.Events {
		if err := p.Events[i].validate(p, rig); err != nil {
			return fmt.Errorf("scenario %s: phase %s: event %d: %w", sc, p.Name, i, err)
		}
	}
	return nil
}

// validate is the one capability check of the timeline: what each action
// may target, what it needs of the rig, and when it may fire.
func (ev *Event) validate(p *Phase, rig *RigSpec) error {
	// midPhase marks the actions that only make sense under a running
	// storm; like any event past 0 they need an open-loop phase.
	midPhase := ev.At > 0
	switch ev.Action {
	case ActionLink:
		if ev.Target != "mdm" && !rig.hasStore(ev.Target) {
			return fmt.Errorf("link names unknown link %q", ev.Target)
		}
		// A store blackout also silences the registrar, so it alone makes
		// sense on a bare link; every other setting acts on the proxy.
		bare := ev.Target != "mdm" && ev.Latency == nil && ev.Jitter == nil && ev.Bandwidth == nil
		if !bare && rig.link(ev.Target) == nil {
			return fmt.Errorf("link %s has no proxy to set (declare it under the rig's links)", ev.Target)
		}
	case ActionReregister:
		if ev.Target != "all-dead" && !rig.hasStore(ev.Target) {
			return fmt.Errorf("reregister names unknown store %q", ev.Target)
		}
	case ActionKill, ActionPartition:
		midPhase = true
		if ev.Action == ActionKill && ev.Target == "leader" {
			if rig.Replicas < 2 {
				return fmt.Errorf("kill leader needs a replicated rig (replicas >= 2)")
			}
			break
		}
		if !rig.AutoRepair {
			return fmt.Errorf("%s %s needs an auto-repair rig", ev.Action, ev.Target)
		}
		if ev.Action == ActionPartition && rig.ShardLinks == nil {
			return fmt.Errorf("partition needs shard-links on the rig")
		}
		if idx := shardIndex(ev.Target); idx < 1 || idx >= rig.Shards {
			// shard-0 is the rig's bootstrap/audit alias and must survive;
			// spares are not in the initial map, so killing one repairs
			// nothing.
			return fmt.Errorf("%s targets %q, want an initial-map shard other than shard-0", ev.Action, ev.Target)
		}
	case ActionRebalance:
		midPhase = true
		if rig.Shards < 2 || rig.SpareShards < 1 {
			return fmt.Errorf("rebalance needs a sharded rig with spare-shards")
		}
		if ev.Target != "" {
			return fmt.Errorf("rebalance takes no target")
		}
	default:
		return fmt.Errorf("unknown action %q (link, reregister, kill, partition, rebalance)", ev.Action)
	}
	if midPhase && p.Rate.IsZero() {
		return fmt.Errorf("%s at %s needs an open-loop phase", ev.Action, ev.At)
	}
	if midPhase && ev.At >= p.Duration {
		return fmt.Errorf("%s at %s must fall inside the phase duration", ev.Action, ev.At)
	}
	if ev.Action != ActionLink && (ev.Latency != nil || ev.Jitter != nil || ev.Bandwidth != nil || ev.Blackout != nil) {
		return fmt.Errorf("%s takes no link settings", ev.Action)
	}
	if ev.Action != ActionPartition && ev.HealAfter > 0 {
		return fmt.Errorf("%s takes no heal-after", ev.Action)
	}
	return nil
}

// shape is the directory's S shards × R members: a plain MDM is 1×1, a
// quorum constellation 1×R, a partitioned directory S×1 (spares included).
func (r *RigSpec) shape() (shards, members int) {
	return max(1, r.Shards+r.SpareShards), max(1, r.Replicas)
}

// constellation reports a directory of more than one node.
func (r *RigSpec) constellation() bool { return r.Replicas >= 2 || r.Shards >= 2 }

// link is the declared spec of a named link ("mdm" or "store-N"): the
// per-store override, else the stores' default. Nil means a bare TCP
// connection, no proxy.
func (r *RigSpec) link(name string) *LinkSpec {
	if name == "mdm" {
		return r.Links.MDM
	}
	if l, ok := r.Links.PerStore[name]; ok {
		return l
	}
	return r.Links.Stores
}

// hasStore reports whether name ("store-N") is one of the rig's stores.
func (r *RigSpec) hasStore(name string) bool {
	i := storeIndex(name)
	return i >= 0 && i < r.Stores
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
	case VerbFetch, VerbRegister, VerbSync:
	case VerbReachMe:
		if rig.Profile != ProfileFull {
			return fmt.Errorf("scenario %s: phase %s: reachme needs profile full", sc, phase)
		}
		if rig.constellation() {
			return fmt.Errorf("scenario %s: phase %s: reachme is not supported on replicated or sharded rigs", sc, phase)
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
