package replication

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gupster/internal/core"
	"gupster/internal/journal"
	"gupster/internal/wire"
)

// Role is a node's place in the constellation.
type Role int

const (
	Follower Role = iota
	Candidate
	Leader
)

func (r Role) String() string {
	switch r {
	case Leader:
		return "leader"
	case Candidate:
		return "candidate"
	default:
		return "follower"
	}
}

const (
	// snapChunkBytes sizes snapshot catch-up chunks well under the wire
	// frame limit.
	snapChunkBytes = 256 << 10
	// maxSnapshotBytes bounds follower-side reassembly so a malformed
	// peer cannot balloon memory chunk by chunk.
	maxSnapshotBytes = 128 << 20
)

// Config parameterises one constellation member.
type Config struct {
	// ID is this node's advertised (dialable) address; it doubles as the
	// node's identity in elections and redirects.
	ID string
	// Peers are the advertised addresses of the other members.
	Peers []string
	// Quorum is how many members (self included) must hold a record
	// durably before the client is acknowledged. 0 means majority.
	Quorum int
	// TTL is the leader lease: followers start an election when they
	// have not heard an append for roughly TTL/2–3TTL/4, and a leader
	// that cannot reach a quorum within TTL steps down. 0 means 2s.
	TTL time.Duration
	// Logf, when set, receives election and failover events.
	Logf func(format string, args ...any)
}

// Node is one replicated MDM: it serves the full MDM protocol (resolve,
// register, shield provisioning, …) by delegating to an embedded
// core.Server, intercepts directory mutations to enforce
// leader-only writes with quorum acknowledgement, and speaks the
// repl-* messages to its peers.
type Node struct {
	cfg    Config
	quorum int
	ttl    time.Duration
	mdm    *core.MDM
	mux    *wire.Mux
	jr     *journal.Journal
	ws     *wire.Server

	// applyMu serialises everything that rewrites follower state: batch
	// appends, conflict truncation + rebuild, snapshot install.
	applyMu sync.Mutex
	snapBuf []byte
	snapSrc string
	snapIdx uint64
	snapSeq int

	mu         sync.Mutex
	role       Role
	term       uint64
	votedFor   string
	stateLen   int // bytes of election state on disk
	leaderID   string
	electionAt time.Time
	waiters    []waiter

	peers []*peer
	// conns carries the repl-* traffic to the peers.
	conns     wire.Pool
	stopCh    chan struct{}
	stopOnce  sync.Once
	wg        sync.WaitGroup
	suspended atomic.Bool
}

type waiter struct {
	index uint64
	ch    chan error
}

// peer is the leader's view of one follower.
type peer struct {
	addr   string
	notify chan struct{}

	mu        sync.Mutex
	next      uint64
	match     uint64
	lastAck   time.Time
	reachable bool
	snapshots uint64
}

// NewNode wraps a durable MDM (journal already attached via
// core.OpenDurable) as a constellation member. It installs the
// replication hook so every mutation the embedded server applies is
// quorum-acknowledged, but does not open the listener or start
// elections — call Start.
func NewNode(m *core.MDM, cfg Config) (*Node, error) {
	jr := m.Journal()
	if jr == nil {
		return nil, errors.New("replication: MDM has no journal attached (open it with core.OpenDurable first)")
	}
	if cfg.ID == "" {
		return nil, errors.New("replication: config needs an advertised ID address")
	}
	members := 1 + len(cfg.Peers)
	quorum := cfg.Quorum
	if quorum == 0 {
		quorum = members/2 + 1
	}
	if quorum < 1 || quorum > members {
		return nil, fmt.Errorf("replication: quorum %d out of range for %d members", quorum, members)
	}
	ttl := cfg.TTL
	if ttl <= 0 {
		ttl = 2 * time.Second
	}
	n := &Node{
		cfg:    cfg,
		quorum: quorum,
		ttl:    ttl,
		mdm:    m,
		jr:     jr,
		stopCh: make(chan struct{}),
	}
	for _, addr := range cfg.Peers {
		n.peers = append(n.peers, &peer{addr: addr, notify: make(chan struct{}, 1)})
	}
	n.mux = n.newMux(core.NewServer(m))
	if err := n.loadElectionState(); err != nil {
		return nil, err
	}
	n.resetElectionLocked()
	m.SetReplicator(n.replicate)
	m.SetReplStatus(n.Status)
	return n, nil
}

// Start serves ln with h and starts the election and shipping loops. h is
// the node's own Handle, or an outer layer (shard routing) that
// eventually delegates to it. The listener is pre-opened because
// constellation bootstrap needs every member's address before any member
// exists.
func (n *Node) Start(ln net.Listener, h wire.Handler) {
	n.ws = wire.ServeListener(ln, h)
	n.wg.Add(1 + len(n.peers))
	go n.run()
	for _, p := range n.peers {
		go n.shipper(p)
	}
}

// Close stops the loops and the listener. The journal stays open — it
// belongs to the MDM's owner.
func (n *Node) Close() error {
	n.stopOnce.Do(func() { close(n.stopCh) })
	var err error
	if n.ws != nil {
		err = n.ws.Close()
	}
	n.wg.Wait()
	n.mu.Lock()
	n.failWaitersLocked(errors.New("replication: node closed"))
	n.mu.Unlock()
	n.conns.Close()
	return err
}

// SuspendHeartbeats freezes this node's replication traffic in both
// directions and its election clock — a test hook that simulates a full
// network partition without killing the process: the node keeps serving
// clients (and believing whatever role it held) while cut off from its
// peers.
func (n *Node) SuspendHeartbeats(v bool) { n.suspended.Store(v) }

// errPartitioned is what the repl handlers return while suspended, so a
// partitioned node looks unreachable to its peers rather than answering
// (and learning terms) through the "partition".
var errPartitioned = errors.New("replication: peer unreachable (suspended)")

// Handle is the node's wire dispatch: replication traffic is routed here,
// and everything else falls through to the embedded core server — any
// member answers reads (resolves, traces, stats, …) from its own replica,
// and directory mutations and store heartbeats pass leaderOnly on their
// way in.
func (n *Node) Handle(c *wire.ServerConn, m *wire.Message) { n.mux.ServeWire(c, m) }

// newMux builds that dispatch around the embedded server.
func (n *Node) newMux(inner *core.Server) *wire.Mux {
	x := &wire.Mux{Fallback: inner.Mux}
	wire.Route(x, wire.TypeReplAppend, withoutCtx(n.HandleAppend))
	wire.Route(x, wire.TypeReplVote, withoutCtx(n.HandleVote))
	wire.Route(x, wire.TypeReplSnapshot, withoutCtx(n.HandleSnapshotChunk))
	// A heartbeat is leader-only too: the leader is the one lease
	// authority, and its verdict reaches the followers with every append.
	for _, typ := range []string{wire.TypeRegister, wire.TypeUnregister, wire.TypePutRule, wire.TypeDeleteRule, wire.TypeHeartbeat} {
		inner.Mux.Wrap(typ, n.leaderOnly)
	}
	return x
}

func withoutCtx[Req, Resp any](fn func(*Req) (Resp, error)) func(context.Context, *Req) (Resp, error) {
	return func(_ context.Context, req *Req) (Resp, error) { return fn(req) }
}

// leaderOnly wraps the directory's mutation routes: a node that does not
// lead redirects instead of applying, BEFORE the embedded server touches
// its in-memory directory (mutations are apply-then-journal, so letting
// them through would pollute a follower's replica).
func (n *Node) leaderOnly(ctx context.Context, _ *wire.ServerConn, _ *wire.Message, next func(context.Context) (any, error)) (any, error) {
	n.mu.Lock()
	isLeader := n.role == Leader
	leader := n.leaderID
	term := n.term
	n.mu.Unlock()
	if !isLeader {
		if leader == n.cfg.ID {
			leader = ""
		}
		return nil, &wire.NotLeaderError{LeaderAddr: leader, LeaderID: leader, Term: term}
	}
	return next(ctx)
}

// HandleAppend is the follower half of log shipping. Exported (like the
// other two payload-level handlers) so fuzz targets exercise the
// protocol state machine without a TCP connection.
func (n *Node) HandleAppend(req *AppendRequest) (*AppendResponse, error) {
	if n.suspended.Load() {
		return nil, errPartitioned
	}
	n.mu.Lock()
	if req.Term < n.term {
		resp := &AppendResponse{Term: n.term}
		n.mu.Unlock()
		return resp, nil
	}
	if req.Term > n.term {
		if err := n.termAdvanceLocked(req.Term, ""); err != nil {
			n.mu.Unlock()
			return nil, err
		}
	}
	if n.role != Follower {
		// A same-term append can only come from the term's one leader;
		// a candidate that hears it falls in line.
		n.stepDownLocked()
	}
	n.leaderID = req.LeaderID
	n.resetElectionLocked()
	term := n.term
	n.mu.Unlock()
	n.mdm.FollowLeases(req.Quarantined)

	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	base := n.jr.Base()
	last := n.jr.LastIndex()
	if req.PrevIndex > last {
		return &AppendResponse{Term: term, LastIndex: last}, nil
	}
	if req.PrevIndex > base {
		if pt, ok := n.jr.TermAt(req.PrevIndex); !ok || pt != req.PrevTerm {
			return &AppendResponse{Term: term, LastIndex: req.PrevIndex - 1}, nil
		}
	}
	idx := req.PrevIndex
	var fresh []journal.Record
	for _, e := range req.Entries {
		idx++
		if idx <= base {
			continue // already folded into our snapshot
		}
		if len(fresh) == 0 && idx <= last {
			if et, ok := n.jr.TermAt(idx); ok && et == e.Term {
				continue // already have it
			}
			// Divergent tail (a deposed leader's unacknowledged records):
			// truncate it durably and rebuild the in-memory directory from
			// snapshot + surviving log, since applied records cannot be
			// un-applied individually.
			if err := n.jr.TruncateTo(idx - 1); err != nil {
				return nil, err
			}
			state, err := n.jr.State()
			if err != nil {
				return nil, err
			}
			n.mdm.Restore(state)
			n.logf("truncated divergent tail to index %d, directory rebuilt", idx-1)
			last = idx - 1
		}
		fresh = append(fresh, e)
	}
	if len(fresh) > 0 {
		// Apply BEFORE journaling, matching the leader's apply-then-append
		// convention: the append can trigger auto-compaction, whose
		// snapshot is stamped with the post-batch index — so the directory
		// it captures must already include the batch, or compaction would
		// silently drop the tail from replay. Applies go through the same
		// idempotent path crash recovery uses; one durable append covers
		// the whole batch (single fsync).
		for _, e := range fresh {
			_ = n.mdm.ApplyRecord(e)
		}
		if _, err := n.jr.AppendBatch(fresh); err != nil {
			return nil, err
		}
	}
	return &AppendResponse{Term: term, Ok: true, LastIndex: n.jr.LastIndex()}, nil
}

// HandleVote applies the election rules: one vote per term, granted only
// to candidates whose log is at least as complete as ours. A vote that
// also moves the term is persisted with it in one write; a pre-vote moves
// nothing.
func (n *Node) HandleVote(req *VoteRequest) (*VoteResponse, error) {
	if n.suspended.Load() {
		return nil, errPartitioned
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if req.Term < n.term {
		return &VoteResponse{Term: n.term}, nil
	}
	lastI, lastT := n.jr.LastIndex(), n.jr.LastTerm()
	complete := req.LastTerm > lastT || (req.LastTerm == lastT && req.LastIndex >= lastI)
	if req.PreVote {
		return &VoteResponse{Term: n.term, Granted: complete && n.role != Leader}, nil
	}
	if req.Term > n.term {
		vote := ""
		if complete {
			vote = req.CandidateID
		}
		if err := n.termAdvanceLocked(req.Term, vote); err != nil {
			return nil, err
		}
	}
	resp := &VoteResponse{Term: n.term}
	if !complete || (n.votedFor != "" && n.votedFor != req.CandidateID) {
		return resp, nil
	}
	if n.votedFor != req.CandidateID {
		n.votedFor = req.CandidateID
		if err := n.persistLocked(); err != nil {
			n.votedFor = ""
			return nil, err
		}
	}
	// Granting a vote concedes the current election round: back off our
	// own clock so the candidate has a full round to win.
	n.resetElectionLocked()
	resp.Granted = true
	return resp, nil
}

// HandleSnapshotChunk reassembles and installs a leader checkpoint —
// the catch-up path when this follower asked for a compacted prefix.
func (n *Node) HandleSnapshotChunk(req *SnapshotChunk) (*SnapshotResponse, error) {
	if n.suspended.Load() {
		return nil, errPartitioned
	}
	n.mu.Lock()
	if req.Term < n.term {
		resp := &SnapshotResponse{Term: n.term}
		n.mu.Unlock()
		return resp, nil
	}
	if req.Term > n.term {
		if err := n.termAdvanceLocked(req.Term, ""); err != nil {
			n.mu.Unlock()
			return nil, err
		}
	}
	if n.role != Follower {
		n.stepDownLocked()
	}
	n.leaderID = req.LeaderID
	n.resetElectionLocked()
	term := n.term
	n.mu.Unlock()

	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	if req.Seq == 0 {
		n.snapBuf = n.snapBuf[:0]
		n.snapSrc = req.LeaderID
		n.snapIdx = req.Index
		n.snapSeq = -1
	}
	if req.LeaderID != n.snapSrc || req.Index != n.snapIdx || req.Seq != n.snapSeq+1 ||
		len(n.snapBuf)+len(req.Data) > maxSnapshotBytes {
		n.snapBuf = nil
		return &SnapshotResponse{Term: term}, nil // restart the transfer
	}
	n.snapBuf = append(n.snapBuf, req.Data...)
	n.snapSeq = req.Seq
	if !req.Last {
		return &SnapshotResponse{Term: term, Ok: true}, nil
	}
	var snap journal.Snapshot
	err := json.Unmarshal(n.snapBuf, &snap)
	n.snapBuf = nil
	if err != nil {
		return &SnapshotResponse{Term: term}, nil
	}
	snap.Index = req.Index
	snap.Term = req.SnapTerm
	if snap.Index <= n.jr.Base() {
		// Already at or past this checkpoint; report where we are.
		return &SnapshotResponse{Term: term, Ok: true, LastIndex: n.jr.LastIndex()}, nil
	}
	if err := n.jr.InstallSnapshot(&snap); err != nil {
		return nil, err
	}
	n.mdm.Restore(&journal.Recovered{Snapshot: &snap})
	n.logf("installed snapshot at index %d (term %d) from %s", snap.Index, snap.Term, req.LeaderID)
	return &SnapshotResponse{Term: term, Ok: true, LastIndex: snap.Index}, nil
}

// Status snapshots the node's replication state for gupctl / stats.
func (n *Node) Status() *wire.ReplStatus {
	n.mu.Lock()
	leader := n.leaderID
	st := &wire.ReplStatus{
		ID:         n.cfg.ID,
		Role:       n.role.String(),
		Term:       n.term,
		LeaderID:   leader,
		LeaderAddr: leader,
		Quorum:     n.quorum,
	}
	n.mu.Unlock()
	st.LastIndex = n.jr.LastIndex()
	st.Base = n.jr.Base()
	for _, p := range n.peers {
		p.mu.Lock()
		st.Peers = append(st.Peers, wire.ReplPeer{
			Addr: p.addr, Match: p.match, Reachable: p.reachable, Snapshots: p.snapshots,
		})
		p.mu.Unlock()
	}
	return st
}

// electionState is what survives a restart: the highest term seen and
// the vote cast in it. Losing either could double-vote a term.
type electionState struct {
	Term     uint64 `json:"term"`
	VotedFor string `json:"voted_for"`
}

func (n *Node) electionPath() string {
	return filepath.Join(n.jr.Dir(), "election.json")
}

// persistLocked records term+votedFor atomically (temp + fsync +
// rename) before the decision leaves this node. Caller holds n.mu.
func (n *Node) persistLocked() error {
	data, err := json.Marshal(electionState{Term: n.term, VotedFor: n.votedFor})
	if err != nil {
		return err
	}
	path := n.electionPath()
	if n.jr.NoSync() {
		return n.overwriteLocked(path, data)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "election.tmp-")
	if err != nil {
		return err
	}
	if _, err = tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// overwriteLocked is persistLocked beside a NoSync journal, which promises
// nothing past a machine crash: the state is written over the old one in
// place, in one write padded to the old state's length, so a killed process
// leaves one state or the other. It creates no file and renames none —
// metadata writes a busy disk queues behind every other fsync, long enough
// to time out vote rounds. Caller holds n.mu.
func (n *Node) overwriteLocked(path string, data []byte) error {
	for len(data) < n.stateLen {
		data = append(data, ' ')
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	_, err = f.WriteAt(data, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		n.stateLen = len(data)
	}
	return err
}

func (n *Node) loadElectionState() error {
	data, err := os.ReadFile(n.electionPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var st electionState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("replication: corrupt election state: %w", err)
	}
	n.stateLen = len(data)
	n.term = st.Term
	n.votedFor = st.VotedFor
	return nil
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf("[repl %s] "+format, append([]any{n.cfg.ID}, args...)...)
	}
}
