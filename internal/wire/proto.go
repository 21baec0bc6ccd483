package wire

import (
	"fmt"
	"slices"
	"strings"

	"gupster/internal/metrics"
	"gupster/internal/policy"
	"gupster/internal/token"
	"gupster/internal/trace"
)

// Message type names used by the GUPster protocol. Clients talk to the MDM
// with Resolve/Subscribe/Provision; to data stores with Fetch/Update/Sync*;
// stores talk to the MDM with Register/Unregister.
const (
	TypeResolve    = "resolve"
	TypeFetch      = "fetch"
	TypeUpdate     = "update"
	TypeRegister   = "register"
	TypeUnregister = "unregister"
	TypeSubscribe  = "subscribe"
	TypeNotify     = "notify"
	TypePutRule    = "put-rule"
	TypeDeleteRule = "delete-rule"
	TypeSyncStart  = "sync-start"
	TypeSyncDelta  = "sync-delta"
	TypeWhoHas     = "who-has" // white pages: locate a user's MDM (§5.1.2)
	TypeStats      = "stats"
	// TypeChanged is sent by data stores to the MDM when a component
	// changes, driving cache invalidation and subscriptions.
	TypeChanged = "changed"
	// TypeExec migrates a whole request to a data store (recruiting
	// pattern, §5.2): the store gathers sibling pieces itself.
	TypeExec = "exec"
	// TypeProvenance asks the MDM for an owner's disclosure ledger (§7's
	// data-provenance challenge).
	TypeProvenance = "provenance"
	// TypeBatchResolve carries several resolves in one frame; the MDM
	// answers them concurrently and returns per-entry results, so thin
	// clients amortize framing and round-trip latency.
	TypeBatchResolve = "batch-resolve"
	// TypeTrace asks the MDM (the constellation's trace directory) for the
	// span tree of one trace.
	TypeTrace = "trace"
	// TypeSlow asks for recent slow-query traces.
	TypeSlow = "slow"
	// TypeTraceReport is a one-way (ID 0) frame from a client delivering
	// its finished trace — the root span plus everything piggybacked from
	// downstream hops — to the MDM.
	TypeTraceReport = "trace-report"
	// TypeHeartbeat renews a store's registration lease at the MDM. Stores
	// heartbeat on an interval; an MDM that stays silent about a store past
	// the lease grace period quarantines it out of query plans.
	TypeHeartbeat = "heartbeat"
	// TypeOverloaded is a reply type: the server refused the request under
	// admission control (queue full, queue wait exceeded, or the request's
	// propagated budget was already below the observed service time). The
	// payload carries a retry-after hint; the resilience layer treats the
	// refusal as backoff-not-failure so retries cannot amplify the storm.
	// The reply also sets Error: the refusal in words, for whoever reads the
	// frame without knowing the type.
	TypeOverloaded = "overloaded"
	// TypeNotLeader is a reply type from a replicated MDM constellation:
	// the node refused a directory mutation because it is not the current
	// leader. The payload carries the leader's address (when known) so
	// clients and stores re-home transparently instead of failing. Like
	// TypeOverloaded, the reply also sets Error.
	TypeNotLeader = "not-leader"
	// Replication traffic between the MDMs of a constellation: log
	// append/ack (also the leader's heartbeat when empty), election votes,
	// and snapshot catch-up chunks. Payload shapes live in
	// internal/replication (they embed journal records, which wire cannot
	// import).
	TypeReplAppend   = "repl-append"
	TypeReplVote     = "repl-vote"
	TypeReplSnapshot = "repl-snapshot"
	// TypeWrongShard is a reply type from a sharded directory: the node
	// refused an owner-scoped request because the owner's keyspace slice
	// belongs to another shard. The payload carries the owning shard's
	// address (and, when known, the replier's full shard map) so clients
	// and stores re-home transparently instead of failing. Like
	// TypeOverloaded and TypeNotLeader, the reply also sets Error.
	TypeWrongShard = "wrong-shard"
	// Shard administration: fetch a node's current shard map, install a
	// new map version (the rebalance protocol), and dump a shard's
	// directory state so a coordinator can replay moved owners
	// shard-to-shard.
	TypeShardMap      = "shard-map"
	TypeShardInstall  = "shard-install"
	TypeShardCoverage = "shard-coverage"
	// Gossip failure detection between shard nodes (internal/health):
	// direct probe, indirect probe relayed through a third member, and the
	// operator-facing membership dump. Ping and ack both piggyback the
	// sender's shard-map (epoch, version) so a node fenced behind a stale
	// map learns about newer installs from any round-trip.
	TypeGossipPing    = "gossip-ping"
	TypeGossipPingReq = "gossip-ping-req"
	TypeMembership    = "membership"
)

// Every struct below travels in the payload codec (codec.go), which names
// no field: a struct's field order is the protocol, so reordering,
// inserting, removing or retyping a field needs a new frame version byte.
// The json tags serve the journal and gupctl's output, not the wire.

// ShardInfo locates one shard of a partitioned directory: a stable shard
// ID, the address clients dial, and (when the shard is itself a quorum
// constellation) the full member set, which directory handles fail over
// through and gossip probes in turn (any member answering keeps the shard
// alive).
type ShardInfo struct {
	ID      string   `json:"id"`
	Addr    string   `json:"addr"`
	Members []string `json:"members,omitempty"`
}

// ShardMap is a versioned assignment of the owner keyspace to shards.
// Owners map to shards through the deterministic consistent-hash ring in
// internal/shard; the map itself only names the shards, so any two nodes
// holding the same version route every owner identically.
type ShardMap struct {
	Version uint64      `json:"version"`
	Shards  []ShardInfo `json:"shards"`
	// Epoch is the repair generation: operator rebalances reuse the current
	// epoch and bump Version, while every auto-repair (spare promotion,
	// survivor re-partition) bumps Epoch. Maps order lexicographically by
	// (Epoch, Version); a node holding a lower pair is fenced — its installs
	// and redirects are refused by every up-to-date peer. Maps that predate
	// the field decode as epoch 0.
	Epoch uint64 `json:"epoch,omitempty"`
}

// ParseShards reads the shard-map syntax of the command lines: entries
// "id=addr" or "id=addr|addr|…", separated by commas. The first address is
// the shard's Addr; a shard given more than one is a quorum constellation,
// and all of them are its Members.
func ParseShards(s string) ([]ShardInfo, error) {
	var shards []ShardInfo
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, list, _ := strings.Cut(entry, "=")
		addrs := strings.Split(list, "|")
		if id == "" || slices.Contains(addrs, "") {
			return nil, fmt.Errorf(`bad shard entry %q (want "id=addr" or "id=addr|addr|...")`, entry)
		}
		info := ShardInfo{ID: id, Addr: addrs[0]}
		if len(addrs) > 1 {
			info.Members = addrs
		}
		shards = append(shards, info)
	}
	return shards, nil
}

// ShardInstallRequest installs a new shard-map version on a node. Mode
// sequences a live rebalance (see internal/shard): "" adopts the map
// outright (the receiving side of a move), "handoff" keeps serving reads,
// subscribes and change notices for owners this node just lost from its
// still-complete replica while holding their mutations until the next
// install (the copy window), and "fence" adopts the map and drops every
// owner it assigns elsewhere — the end of a rebalance, and the rejoin path
// for a node that missed a repair epoch and must not serve stale slices.
type ShardInstallRequest struct {
	Map  ShardMap `json:"map"`
	Mode string   `json:"mode,omitempty"` // "" | "handoff" | "fence"
}

// ShardInstallResponse acknowledges an install with the adopted version.
type ShardInstallResponse struct {
	Version uint64 `json:"version"`
}

// ShardCoverageResponse dumps a node's directory state for shard-to-shard
// replay: every live coverage registration (with the owning store's
// dialable address) and every shield rule.
type ShardCoverageResponse struct {
	Coverage []RegisterRequest `json:"coverage,omitempty"`
	Shields  []PutRuleRequest  `json:"shields,omitempty"`
}

// GossipPing is a direct liveness probe between shard nodes. The sender's
// current shard-map (epoch, version) rides along so any probed peer —
// even one the sender believes suspect — can notice it holds a newer map
// and anti-entropy it back.
type GossipPing struct {
	FromID   string `json:"from_id"`
	FromAddr string `json:"from_addr,omitempty"`
	// MapEpoch/MapVersion are the sender's installed map coordinates.
	MapEpoch   uint64 `json:"map_epoch,omitempty"`
	MapVersion uint64 `json:"map_version,omitempty"`
}

// GossipAck answers a ping (directly or relayed through a ping-req). Only
// an ack refutes suspicion: receiving a probe proves the peer's inbound
// path works, but availability needs the full request→reply round trip,
// which is exactly what a delivered ack witnesses.
type GossipAck struct {
	FromID     string `json:"from_id"`
	MapEpoch   uint64 `json:"map_epoch,omitempty"`
	MapVersion uint64 `json:"map_version,omitempty"`
}

// GossipPingReq asks an intermediary to probe Target on the requester's
// behalf (SWIM's indirect probe): a healthy target that the requester
// merely cannot reach — a partial partition — still gets vouched for by
// the relay's ack.
type GossipPingReq struct {
	FromID     string `json:"from_id"`
	TargetID   string `json:"target_id"`
	TargetAddr string `json:"target_addr"`
	// TimeoutMillis bounds the relay's probe of the target.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// MemberHealth is one row of a node's failure-detector view, surfaced
// through TypeMembership for `gupctl health`.
type MemberHealth struct {
	ID   string `json:"id"`
	Addr string `json:"addr,omitempty"`
	// State is "alive" | "suspect" | "dead".
	State string `json:"state"`
	// SinceMillis is how long the member has been in State.
	SinceMillis int64 `json:"since_ms,omitempty"`
	// Spare marks a member the current shard map does not assign coverage
	// to — the promotion pool for auto-repair.
	Spare bool `json:"spare,omitempty"`
}

// MembershipResponse dumps a shard node's gossip view.
type MembershipResponse struct {
	Self       string         `json:"self"`
	MapEpoch   uint64         `json:"map_epoch"`
	MapVersion uint64         `json:"map_version"`
	AutoRepair bool           `json:"auto_repair,omitempty"`
	Members    []MemberHealth `json:"members,omitempty"`
}

// ReplStatus is a replicated node's election/log view, surfaced through
// StatsResponse for `gupctl replication`.
type ReplStatus struct {
	ID   string `json:"id"`
	Role string `json:"role"` // "leader" | "follower" | "candidate"
	Term uint64 `json:"term"`
	// LeaderID/LeaderAddr identify the leader this node follows (itself
	// when leader; empty mid-election).
	LeaderID   string `json:"leader_id,omitempty"`
	LeaderAddr string `json:"leader_addr,omitempty"`
	// LastIndex is the newest journal record's global index; Base the
	// index covered by the local snapshot; Quorum the ack count a write
	// needs (leader included).
	LastIndex uint64 `json:"last_index"`
	Base      uint64 `json:"base,omitempty"`
	Quorum    int    `json:"quorum,omitempty"`
	// Peers reports the leader's view of each follower (empty on
	// followers).
	Peers []ReplPeer `json:"peers,omitempty"`
}

// ReplPeer is one row of the leader's follower table.
type ReplPeer struct {
	Addr string `json:"addr"`
	// Match is the highest journal index known durably appended at the
	// peer; Reachable is whether the last ship attempt succeeded.
	Match     uint64 `json:"match"`
	Reachable bool   `json:"reachable"`
	// Snapshots counts snapshot installs shipped to this peer (catch-up
	// after compaction).
	Snapshots uint64 `json:"snapshots,omitempty"`
}

// HeartbeatRequest renews a store's lease. Addr, when non-empty, is
// authoritative: a store that moved updates its dialable address with the
// heartbeat, not just with a full re-registration.
type HeartbeatRequest struct {
	Store string `json:"store"`
	Addr  string `json:"addr,omitempty"`
}

// HeartbeatResponse acknowledges a lease renewal.
type HeartbeatResponse struct {
	// Known is false when the MDM holds no registration for the store —
	// the signal that the MDM lost its directory (restart without a
	// journal) and the store must re-register its coverage.
	Known bool `json:"known"`
	// TTLMillis is the lease duration granted; 0 when the MDM runs with
	// leases disabled (registrations then never expire).
	TTLMillis int64 `json:"ttl_millis,omitempty"`
}

// LeaseInfo is one row of the MDM's store-liveness table, surfaced through
// StatsResponse for `gupctl health`.
type LeaseInfo struct {
	Store string `json:"store"`
	Addr  string `json:"addr,omitempty"`
	// RemainingMillis is time left on the lease; negative means the lease
	// expired that long ago.
	RemainingMillis int64 `json:"remaining_millis"`
	// Quarantined stores are excluded from query plans until they
	// heartbeat or re-register.
	Quarantined bool `json:"quarantined,omitempty"`
	// Registrations counts the store's live coverage registrations.
	Registrations int `json:"registrations"`
}

// TraceRequest asks for one trace's retained spans.
type TraceRequest struct {
	TraceID string `json:"trace_id"`
}

// TraceResponse returns them (empty when unknown or evicted).
type TraceResponse struct {
	Spans []trace.Span `json:"spans,omitempty"`
}

// SlowRequest asks for recent slow traces; Max <= 0 returns all retained.
type SlowRequest struct {
	Max int `json:"max,omitempty"`
}

// SlowResponse returns slow traces, most recent last.
type SlowResponse struct {
	Traces []trace.SlowTrace `json:"traces,omitempty"`
}

// TraceReportRequest carries a finished trace's spans to the MDM.
type TraceReportRequest struct {
	Spans []trace.Span `json:"spans"`
}

// ProvenanceRequest asks for the disclosure records of an owner's profile.
// Only the owner may read her own ledger.
type ProvenanceRequest struct {
	Owner     string `json:"owner"`
	Requester string `json:"requester"`
	// SinceSeq bounds the result to records after this sequence number.
	SinceSeq uint64 `json:"since_seq,omitempty"`
	// Summarize returns per-requester disclosure summaries instead of raw
	// records.
	Summarize bool `json:"summarize,omitempty"`
}

// ProvenanceRecord is the wire form of one disclosure event.
type ProvenanceRecord struct {
	Seq       uint64   `json:"seq"`
	TimeUnix  int64    `json:"time_unix"`
	Path      string   `json:"path"`
	Requester string   `json:"requester"`
	Role      string   `json:"role,omitempty"`
	Purpose   string   `json:"purpose,omitempty"`
	Verb      string   `json:"verb"`
	Outcome   string   `json:"outcome"`
	RuleID    string   `json:"rule_id,omitempty"`
	Grants    []string `json:"grants,omitempty"`
	Stores    []string `json:"stores,omitempty"`
}

// ProvenanceSummary is the wire form of a per-requester disclosure rollup.
type ProvenanceSummary struct {
	Requester string   `json:"requester"`
	Paths     []string `json:"paths,omitempty"`
	Grants    int      `json:"grants"`
	Denials   int      `json:"denials"`
	LastUnix  int64    `json:"last_unix"`
}

// ProvenanceResponse returns records or summaries.
type ProvenanceResponse struct {
	Records   []ProvenanceRecord  `json:"records,omitempty"`
	Summaries []ProvenanceSummary `json:"summaries,omitempty"`
}

// ChangedNotice tells the MDM a component changed at a store. XML is its
// bulk field (see Payload): the wire:"bulk" tag makes a frame carry it as
// raw bytes after the other fields. ExecResponse, ResolveResponse,
// FetchResponse and UpdateRequest tag theirs the same way. A type nested
// in another payload (BatchResolveResponse's entries), Notification and the
// sync-session payloads carry their XML in place.
type ChangedNotice struct {
	Store   string `json:"store"`
	User    string `json:"user"`
	Path    string `json:"path"`
	XML     string `json:"xml" wire:"bulk"`
	Version uint64 `json:"version"`
}

// ExecRequest migrates a query to a store (recruiting): the primary store
// fetches the sibling referrals itself and returns the merged result.
type ExecRequest struct {
	// Primary is the piece this store serves itself.
	Primary FetchRequest `json:"primary"`
	// Siblings are referrals to the other pieces, fetched by this store.
	Siblings []Referral `json:"siblings,omitempty"`
}

// ExecResponse returns the merged component.
type ExecResponse struct {
	XML string `json:"xml" wire:"bulk"`
}

// QueryPattern selects the distributed query pattern (§5.2, after ubQL).
type QueryPattern string

// The three patterns the paper names.
const (
	// PatternReferral: the MDM returns signed queries; the client fetches
	// from the stores directly. The default.
	PatternReferral QueryPattern = "referral"
	// PatternChaining: the MDM fetches from the stores on the client's
	// behalf, merges, and returns data.
	PatternChaining QueryPattern = "chaining"
	// PatternRecruiting: the MDM migrates the query to one data store,
	// which gathers the remaining pieces from its peers and returns the
	// merged result to the client.
	PatternRecruiting QueryPattern = "recruiting"
)

// ResolveRequest asks the MDM to resolve a profile request.
type ResolveRequest struct {
	// Owner is the profile owner ("" derives it from the path's id
	// predicate).
	Owner string `json:"owner,omitempty"`
	// Path is the requested XPath expression.
	Path string `json:"path"`
	// Context is the request's non-path facet, evaluated against the
	// owner's privacy shield.
	Context policy.Context `json:"context"`
	// Verb is the intended operation (fetch/update/subscribe).
	Verb token.Verb `json:"verb"`
	// Pattern selects referral (default), chaining, or recruiting.
	Pattern QueryPattern `json:"pattern,omitempty"`
}

// Referral is one way to satisfy (part of) a request: a signed query plus
// the remainder path the client should evaluate over the fetched component.
type Referral struct {
	Query token.SignedQuery `json:"query"`
	// Address is the store's dialable address.
	Address string `json:"address"`
}

// Alternative is a set of referrals that together cover the request; the
// pieces must be merged (deep union) client-side. A single-element
// alternative needs no merge.
type Alternative struct {
	Referrals []Referral `json:"referrals"`
	// Merge names the reconciliation to apply when len(Referrals) > 1;
	// currently always "deep-union".
	Merge string `json:"merge,omitempty"`
}

// ResolveResponse answers a referral-pattern resolve: alternatives are
// choices (the paper's "||" operator, §4.3) — any one of them satisfies the
// request.
type ResolveResponse struct {
	Alternatives []Alternative `json:"alternatives,omitempty"`
	// Data carries the merged result directly for chaining/recruiting
	// resolves, in which case Alternatives is empty.
	Data string `json:"data,omitempty" wire:"bulk"`
	// Cached reports that Data was served from the MDM cache.
	Cached bool `json:"cached,omitempty"`
	// Hops counts MDM-to-MDM forwards in federated deployments (§5.1):
	// 0 means the first MDM answered itself.
	Hops int `json:"hops,omitempty"`
	// Degraded lists granted paths that were left out of the plan because
	// every store covering them is quarantined (lease expired), or — under
	// brownout — paths whose fresh fetch or recruit fan-out was skipped.
	// The rest of the response is a partial result: chaining/recruiting
	// resolves return the live pieces instead of burning retries against
	// corpses.
	Degraded []string `json:"degraded,omitempty"`
	// Stale reports that Data came from the MDM's stale side-buffer while
	// the server was in brownout: possibly outdated, better than nothing
	// on the call-setup path.
	Stale bool `json:"stale,omitempty"`
}

// BatchResolveRequest bundles independent resolves into one frame. The
// MDM resolves the entries concurrently (bounded by its fan-out width)
// and never fails the batch wholesale: each entry succeeds or fails on
// its own.
type BatchResolveRequest struct {
	Requests []ResolveRequest `json:"requests"`
}

// BatchResolveEntry is the outcome of one entry of a batch: exactly one
// of Response or Error is meaningful (Error == "" means success).
type BatchResolveEntry struct {
	Response *ResolveResponse `json:"response,omitempty"`
	Error    string           `json:"error,omitempty"`
}

// BatchResolveResponse answers a batch positionally: Results[i] is the
// outcome of Requests[i].
type BatchResolveResponse struct {
	Results []BatchResolveEntry `json:"results"`
}

// FetchRequest asks a data store for the component granted by Query.
type FetchRequest struct {
	Query token.SignedQuery `json:"query"`
}

// FetchResponse returns the component as GUP XML ("" when the store holds
// nothing under the granted path).
type FetchResponse struct {
	XML string `json:"xml" wire:"bulk"`
	// Version is the store's monotonic version of the component, used for
	// cache invalidation and sync anchors.
	Version uint64 `json:"version"`
}

// UpdateRequest writes a component at a data store.
type UpdateRequest struct {
	Query token.SignedQuery `json:"query"`
	XML   string            `json:"xml" wire:"bulk"`
}

// UpdateResponse acknowledges a write.
type UpdateResponse struct {
	Version uint64 `json:"version"`
}

// RegisterRequest is a store announcing coverage to the MDM.
type RegisterRequest struct {
	Store   string `json:"store"`
	Address string `json:"address"`
	Path    string `json:"path"`
}

// UnregisterRequest withdraws coverage.
type UnregisterRequest struct {
	Store string `json:"store"`
	Path  string `json:"path"`
}

// Empty is the body of acknowledgement-only responses.
type Empty struct{}

// SubscribeRequest asks the MDM for push notifications on a path (§5.2).
// The reply is Empty. A subscription is its connection: notifications are
// pushed down it, and closing it is how the subscriber unsubscribes.
type SubscribeRequest struct {
	Owner   string         `json:"owner,omitempty"`
	Path    string         `json:"path"`
	Context policy.Context `json:"context"`
}

// Notification is pushed to subscribers when a covered component changes.
type Notification struct {
	// SubID is the subscriber's own handle for the subscription, filled in
	// by the client that receives it; it never travels.
	SubID uint64 `json:"-"`
	Path  string `json:"path"`
	// XML is the new component content (already shield-filtered).
	XML string `json:"xml"`
	// Version is the store version that triggered the notification.
	Version uint64 `json:"version"`
	// Canceled marks a tombstone: the server dropped the subscription
	// (directory reset from a leader snapshot, shard handoff) and will
	// send nothing further on this connection. Clients close it and
	// re-subscribe against their current directory target.
	Canceled bool `json:"canceled,omitempty"`
}

// PutRuleRequest provisions one privacy-shield rule (self-provisioning,
// requirement 11). Conditions travel in a compact serialized form.
type PutRuleRequest struct {
	Owner string      `json:"owner"`
	Rule  RulePayload `json:"rule"`
}

// RulePayload is the wire form of a policy rule.
type RulePayload struct {
	ID       string `json:"id"`
	Path     string `json:"path"`
	Effect   string `json:"effect"` // "permit" | "deny"
	Priority int    `json:"priority,omitempty"`
	// Cond is a serialized condition expression; see policy/condexpr.
	Cond string `json:"cond,omitempty"`
}

// DeleteRuleRequest removes a rule.
type DeleteRuleRequest struct {
	Owner  string `json:"owner"`
	RuleID string `json:"rule_id"`
}

// SyncStartRequest opens a sync session for a component (§2.3 req 7,
// SyncML-style anchors).
type SyncStartRequest struct {
	Query token.SignedQuery `json:"query"`
	// LastAnchor is the store version the device saw at the end of its
	// previous sync; 0 forces a slow sync.
	LastAnchor uint64 `json:"last_anchor"`
}

// SyncStartResponse tells the device how to proceed.
type SyncStartResponse struct {
	// Slow instructs the device to send its full component (anchors did not
	// match or there is no change log coverage).
	Slow bool `json:"slow"`
	// ServerOps are item edits the store saw since LastAnchor (two-way
	// fast sync). Encoded item ops; see syncml.EncodeOps.
	ServerOps []SyncOp `json:"server_ops,omitempty"`
	// Anchor is the store's current version.
	Anchor uint64 `json:"anchor"`
	// XML carries the full server component on slow sync.
	XML string `json:"xml,omitempty"`
}

// SyncOp is one item-granularity edit on the wire.
type SyncOp struct {
	Kind string `json:"kind"` // add | remove | modify
	Key  string `json:"key,omitempty"`
	XML  string `json:"xml,omitempty"`
}

// SyncDeltaRequest sends the device's local edits (or full state on slow
// sync) back to the store.
type SyncDeltaRequest struct {
	Query token.SignedQuery `json:"query"`
	// LastAnchor repeats the anchor from SyncStart so the store can detect
	// conflicts (items changed on both sides since the anchor).
	LastAnchor uint64 `json:"last_anchor"`
	// StartAnchor is the Anchor the store reported in SyncStartResponse;
	// if the component moved past it before the delta arrived, the store
	// returns authoritative XML so the device cannot silently diverge.
	StartAnchor uint64   `json:"start_anchor,omitempty"`
	Ops         []SyncOp `json:"ops,omitempty"`
	XML         string   `json:"xml,omitempty"` // slow sync full state
	// Policy names the reconciliation policy for conflicts:
	// "server-wins" | "client-wins" | "merge".
	Policy string `json:"policy,omitempty"`
}

// SyncDeltaResponse concludes the session.
type SyncDeltaResponse struct {
	// Anchor is the new store version the device must remember.
	Anchor uint64 `json:"anchor"`
	// XML carries the authoritative reconciled component, but only when the
	// device cannot reconstruct it itself — on slow syncs and on fast syncs
	// that resolved conflicts. Empty otherwise (the common fast path moves
	// deltas only).
	XML string `json:"xml,omitempty"`
	// Conflicts counts item conflicts resolved by policy.
	Conflicts int `json:"conflicts"`
}

// WhoHasRequest asks the white pages which MDM manages a user (§5.1.2).
type WhoHasRequest struct {
	User string `json:"user"`
}

// WhoHasResponse returns the MDM address, or Unlisted.
type WhoHasResponse struct {
	Address  string `json:"address,omitempty"`
	Unlisted bool   `json:"unlisted,omitempty"`
}

// StatsResponse exposes server counters for benchmarks and operations.
type StatsResponse struct {
	Resolves      uint64 `json:"resolves"`
	Denied        uint64 `json:"denied"`
	Spurious      uint64 `json:"spurious"`
	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	Registrations int    `json:"registrations"`
	Subscriptions int    `json:"subscriptions"`
	BytesProxied  uint64 `json:"bytes_proxied"`
	// Resilience counters for the server-side query patterns: retry
	// attempts, breaker trips, and short-circuited store calls.
	Retries       uint64 `json:"retries,omitempty"`
	BreakerTrips  uint64 `json:"breaker_trips,omitempty"`
	ShortCircuits uint64 `json:"short_circuits,omitempty"`
	// Resolve-pipeline counters: in-flight coalescing (flights executed
	// vs. callers served by another caller's flight), bounded parallel
	// fan-outs, and batch-resolve frames.
	Flights        uint64 `json:"flights,omitempty"`
	CoalesceHits   uint64 `json:"coalesce_hits,omitempty"`
	FanOuts        uint64 `json:"fan_outs,omitempty"`
	FanOutCalls    uint64 `json:"fan_out_calls,omitempty"`
	BatchResolves  uint64 `json:"batch_resolves,omitempty"`
	BatchedQueries uint64 `json:"batched_queries,omitempty"`
	// Hops carries per-hop latency percentiles aggregated from the server's
	// trace collector, keyed by span name.
	Hops []metrics.HopStat `json:"hops,omitempty"`
	// TraceSpans and TraceDropped report the collector's retained/bounded
	// span counts.
	TraceSpans   int    `json:"trace_spans,omitempty"`
	TraceDropped uint64 `json:"trace_dropped,omitempty"`
	// Leases is the store-liveness table (present only when the MDM runs
	// with leases enabled), one row per lease-managed store.
	Leases []LeaseInfo `json:"leases,omitempty"`
	// Liveness counters: lease renewals, quarantines, recoveries, stores
	// excluded from plans, and resolves that degraded to partial results.
	LeaseRenewals    uint64 `json:"lease_renewals,omitempty"`
	Quarantines      uint64 `json:"quarantines,omitempty"`
	LeaseRecoveries  uint64 `json:"lease_recoveries,omitempty"`
	PlanExclusions   uint64 `json:"plan_exclusions,omitempty"`
	DegradedResolves uint64 `json:"degraded_resolves,omitempty"`
	// Journal counters (present only when the MDM runs with a durable
	// meta-data journal): appended records, fsync batches, compactions,
	// and what the last boot recovered.
	JournalAppends     uint64 `json:"journal_appends,omitempty"`
	JournalSyncs       uint64 `json:"journal_syncs,omitempty"`
	JournalCompactions uint64 `json:"journal_compactions,omitempty"`
	JournalRecovered   uint64 `json:"journal_recovered,omitempty"`
	JournalTornBytes   uint64 `json:"journal_torn_bytes,omitempty"`
	// Overload-protection gauges and counters: the admission controller's
	// work (admitted/queued/shed by class), budget-expired refusals, the
	// brownout detector's state and transitions, and the instantaneous
	// pressure fraction. Present only when the server runs with admission
	// control enabled.
	AdmissionAdmitted uint64  `json:"admission_admitted,omitempty"`
	AdmissionQueued   uint64  `json:"admission_queued,omitempty"`
	ShedHigh          uint64  `json:"shed_high,omitempty"`
	ShedNormal        uint64  `json:"shed_normal,omitempty"`
	QueueTimeouts     uint64  `json:"queue_timeouts,omitempty"`
	BudgetExpired     uint64  `json:"budget_expired,omitempty"`
	BrownoutActive    bool    `json:"brownout_active,omitempty"`
	BrownoutEnters    uint64  `json:"brownout_enters,omitempty"`
	BrownoutExits     uint64  `json:"brownout_exits,omitempty"`
	BrownoutServed    uint64  `json:"brownout_served,omitempty"`
	Pressure          float64 `json:"pressure,omitempty"`
	// Repl is the node's replication status (present only when the MDM is
	// part of a replicated constellation).
	Repl *ReplStatus `json:"repl,omitempty"`
}
