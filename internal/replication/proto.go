// Package replication turns a durable MDM into one member of a
// quorum-replicated constellation. The leader ships its journal to
// followers over the same wire protocol stores and clients speak
// (TypeReplAppend / TypeReplVote / TypeReplSnapshot), followers apply
// records through the idempotent replay path, and a lease-based
// election promotes a follower when the leader's lease lapses — so a
// kill -9 of the leader fails over in under one lease TTL with zero
// acknowledged registrations lost.
//
// The payload shapes live here rather than in internal/wire because
// they embed journal records and wire cannot import journal (journal
// already imports wire for the record payloads).
package replication

import "gupster/internal/journal"

// AppendRequest ships a batch of journal records from the leader to a
// follower; with no entries it doubles as the leader's heartbeat. The
// (PrevIndex, PrevTerm) pair is the log-matching check: the follower
// accepts only if its own record at PrevIndex carries PrevTerm,
// otherwise it reports where its log actually ends so the leader can
// rewind. Quarantined is the leader's store-lease verdict, normally
// empty: the follower plans by it instead of its own clocks, since store
// heartbeats reach only the leader.
type AppendRequest struct {
	Term        uint64           `json:"term"`
	LeaderID    string           `json:"leader_id"`
	PrevIndex   uint64           `json:"prev_index"`
	PrevTerm    uint64           `json:"prev_term"`
	Entries     []journal.Record `json:"entries,omitempty"`
	Quarantined []string         `json:"quarantined,omitempty"`
}

// AppendResponse acknowledges an AppendRequest. Ok false with a higher
// Term means the leader is deposed; Ok false otherwise carries the
// follower's best guess at the last index the logs agree on.
type AppendResponse struct {
	Term      uint64 `json:"term"`
	Ok        bool   `json:"ok"`
	LastIndex uint64 `json:"last_index"`
}

// VoteRequest asks a peer for its vote in the candidate's term. The
// (LastIndex, LastTerm) pair enforces the election restriction: a peer
// grants only to candidates whose log is at least as complete as its
// own, which is what guarantees quorum-acknowledged records survive
// failover. A PreVote asks only whether the vote would be granted in Term:
// the peer answers by the same log rule, refuses while it leads, and
// changes no state.
type VoteRequest struct {
	Term        uint64 `json:"term"`
	CandidateID string `json:"candidate_id"`
	LastIndex   uint64 `json:"last_index"`
	LastTerm    uint64 `json:"last_term"`
	PreVote     bool   `json:"pre_vote,omitempty"`
}

// VoteResponse grants or refuses a vote; a higher Term deposes the
// candidate.
type VoteResponse struct {
	Term    uint64 `json:"term"`
	Granted bool   `json:"granted"`
}

// SnapshotChunk carries one piece of a serialized journal snapshot — the
// catch-up path when a follower asks for a prefix the leader has already
// compacted. Chunks of one transfer share (LeaderID, Index) and arrive
// with consecutive Seq; the follower installs the assembled snapshot
// when Last arrives.
type SnapshotChunk struct {
	Term     uint64 `json:"term"`
	LeaderID string `json:"leader_id"`
	Index    uint64 `json:"index"`
	SnapTerm uint64 `json:"snap_term"`
	Seq      int    `json:"seq"`
	Last     bool   `json:"last"`
	Data     []byte `json:"data"`
}

// SnapshotResponse acknowledges one chunk. Ok false asks the leader to
// restart the transfer from Seq 0.
type SnapshotResponse struct {
	Term      uint64 `json:"term"`
	Ok        bool   `json:"ok"`
	LastIndex uint64 `json:"last_index,omitempty"`
}
