package replication

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"sort"
	"time"

	"gupster/internal/journal"
	"gupster/internal/wire"
)

// Timers, all derived from the lease TTL so the failover bound holds by
// construction: the leader heartbeats every TTL/4, a follower calls an
// election after TTL/2 + up to TTL/4 of jitter without hearing one, and
// a leader that cannot reach a quorum within TTL steps down. Worst-case
// detection is therefore under one TTL, and the election itself is two
// round trips (pre-vote, vote) on a healthy quorum.

func (n *Node) tickInterval() time.Duration {
	// The tick must stay much finer than the election jitter spread
	// (TTL/4), or timer firings quantize into the same tick and
	// same-instant candidacies split the vote.
	d := clampDur(n.ttl/10, 5*time.Millisecond)
	if d > 15*time.Millisecond {
		d = 15 * time.Millisecond
	}
	return d
}
func (n *Node) heartbeatInterval() time.Duration { return clampDur(n.ttl/4, 5*time.Millisecond) }
func (n *Node) callTimeout() time.Duration       { return clampDur(n.ttl/2, 50*time.Millisecond) }

// voteTimeout bounds one vote round. A grant costs the voter a durable
// write of its term and vote, so the round waits as long as any other
// call: on a busy disk a shorter bound turns every round into a timeout
// and every retry into one more term to persist. A dead peer does not
// hold the round up — it ends as soon as a quorum is won or lost.
func (n *Node) voteTimeout() time.Duration { return n.callTimeout() }

func clampDur(d, min time.Duration) time.Duration {
	if d < min {
		return min
	}
	return d
}

// resetElectionLocked re-arms the follower's election clock with fresh
// jitter. Caller holds n.mu.
func (n *Node) resetElectionLocked() {
	jitter := time.Duration(rand.Int63n(int64(n.ttl/4) + 1))
	n.electionAt = time.Now().Add(n.ttl/2 + jitter)
}

// termAdvanceLocked moves to a higher term: step down, forget the old
// term's leader, and record vote ("" for none) as this term's vote —
// persisted in one write before acting on it. Caller holds n.mu.
func (n *Node) termAdvanceLocked(term uint64, vote string) error {
	prevTerm, prevVote, prevRole := n.term, n.votedFor, n.role
	n.term = term
	n.votedFor = vote
	if err := n.persistLocked(); err != nil {
		n.term, n.votedFor = prevTerm, prevVote
		return err
	}
	n.leaderID = ""
	n.stepDownLocked()
	if prevRole == Leader {
		slog.Info("deposed", "member", n.cfg.ID, "term", term, "led_term", prevTerm)
	}
	return nil
}

// stepDownLocked demotes to follower within the current term, failing
// every in-flight quorum waiter — their records may or may not survive,
// and the caller must not be told "acknowledged" for a record the new
// leader could truncate. Caller holds n.mu.
func (n *Node) stepDownLocked() {
	if n.role == Follower && len(n.waiters) == 0 {
		return
	}
	n.role = Follower
	n.failWaitersLocked(&wire.NotLeaderError{Op: "replicate", Term: n.term})
	n.resetElectionLocked()
}

// stepDown is the shipper-side reaction to seeing a higher term in a
// response.
func (n *Node) stepDown(term uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if term > n.term {
		_ = n.termAdvanceLocked(term, "")
	}
}

func (n *Node) failWaitersLocked(err error) {
	for _, w := range n.waiters {
		w.ch <- err
	}
	n.waiters = nil
}

// replicate is the MDM's append hook on a constellation member: append
// locally (group-committed with concurrent callers), then block until a
// quorum of members holds the record durably and it is published. Non-leaders
// refuse with a redirect before touching the journal. A failure after
// the local append wraps journal.ErrUnacknowledged: the record is in this
// member's log, unpublished, and the next commit decides whether it is
// ever published.
func (n *Node) replicate(r journal.Record) error {
	n.mu.Lock()
	if n.role != Leader {
		err := n.notLeaderErrLocked()
		n.mu.Unlock()
		return err
	}
	term := n.term
	n.mu.Unlock()

	r.Term = term
	idx, err := n.jr.AppendIndexed(r)
	if err != nil {
		return err
	}
	if err := n.awaitQuorum(context.Background(), idx, term); err != nil {
		return fmt.Errorf("%w: %w", journal.ErrUnacknowledged, err)
	}
	return nil
}

// awaitQuorum blocks until the record at idx, appended in term, is
// committed and published, or fails when this node stops leading, closes,
// ctx ends or 2×TTL passes.
func (n *Node) awaitQuorum(ctx context.Context, idx, term uint64) error {
	ch := make(chan error, 1)
	n.mu.Lock()
	if n.role != Leader || n.term != term || n.closed {
		// Deposed (or closed) between append and registration: the record
		// sits in our log unpublished; the new leader's shipping will keep
		// or truncate it. Either way the client must retry.
		err := n.notLeaderErrLocked()
		n.mu.Unlock()
		return err
	}
	n.waiters = append(n.waiters, waiter{index: idx, ch: ch})
	n.mu.Unlock()
	n.advanceCommit() // a quorum of one commits at once
	n.kickShippers()

	// A waiter left behind by ctx or the timeout is answered into its
	// buffer by the next commit or step-down.
	timeout := time.NewTimer(2 * n.ttl)
	defer timeout.Stop()
	select {
	case err := <-ch:
		return err
	case <-ctx.Done():
		return ctx.Err()
	case <-timeout.C:
		return fmt.Errorf("replication: no quorum for index %d within %v", idx, 2*n.ttl)
	}
}

func (n *Node) notLeaderErrLocked() *wire.NotLeaderError {
	leader := n.leaderID
	if leader == n.cfg.ID {
		leader = ""
	}
	return &wire.NotLeaderError{Op: "replicate", LeaderAddr: leader, LeaderID: leader, Term: n.term}
}

// advanceCommit moves the commit index to the quorum-th highest of (own
// synced index, each peer's match index) — but only onto an entry of the
// current term, which commits every entry before it too (Raft §5.4.2) —
// publishes up to it, and wakes every waiter it covers. The leader's own
// copy counts only once its fsync has returned: the shippers send records
// before that, and a follower's ack alone is not a quorum's. On a leader
// the commit index is the MDM's published index. A move kicks the
// shippers, so the followers publish within one round trip.
func (n *Node) advanceCommit() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role != Leader {
		return
	}
	matches := make([]uint64, 0, len(n.peers)+1)
	matches = append(matches, n.jr.SyncedIndex())
	for _, p := range n.peers {
		p.mu.Lock()
		matches = append(matches, p.match)
		p.mu.Unlock()
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i] > matches[j] })
	commit := matches[n.quorum-1]
	moved := false
	if t, ok := n.jr.TermAt(commit); ok && t == n.term && commit > n.mdm.Published() {
		n.mdm.Publish(commit)
		moved = true
	}
	published := n.mdm.Published()
	keep := n.waiters[:0]
	for _, w := range n.waiters {
		if w.index <= published {
			w.ch <- nil
		} else {
			keep = append(keep, w)
		}
	}
	n.waiters = keep
	if moved {
		n.kickShippers()
	}
}

func (n *Node) kickShippers() {
	for _, p := range n.peers {
		select {
		case p.notify <- struct{}{}:
		default:
		}
	}
}

// run is the election clock: followers and candidates start elections
// when the leader goes quiet; a leader checks its own lease and steps
// down if a quorum has gone unreachable (so two sides of a partition
// never both accept writes past one TTL).
func (n *Node) run() {
	defer n.wg.Done()
	t := time.NewTicker(n.tickInterval())
	defer t.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case <-t.C:
		}
		if n.suspended.Load() {
			continue
		}
		n.mu.Lock()
		switch n.role {
		case Leader:
			heard := 1
			cutoff := time.Now().Add(-n.ttl)
			for _, p := range n.peers {
				p.mu.Lock()
				if p.lastAck.After(cutoff) {
					heard++
				}
				p.mu.Unlock()
			}
			if heard < n.quorum {
				slog.Info("lease lost", "member", n.cfg.ID, "term", n.term, "reachable", heard, "quorum", n.quorum)
				n.leaderID = ""
				n.stepDownLocked()
			}
			n.mu.Unlock()
		default:
			if time.Now().After(n.electionAt) {
				n.startElectionLocked() // releases n.mu
			} else {
				n.mu.Unlock()
			}
		}
	}
}

// startElectionLocked runs one election: a pre-vote round asks whether a
// quorum would grant the next term, and only then does the node bump the
// term, vote for itself and ask for real votes; a quorum of those makes it
// the leader. The pre-vote costs no one a durable write and moves no term,
// so a member that cannot win — its log trails, or the leader still
// answers — keeps its hands off the term instead of deposing the leader or
// outbidding the member that can win, round after round. Caller holds
// n.mu; it is released before the fan-out.
func (n *Node) startElectionLocked() {
	next := n.term + 1
	n.resetElectionLocked()
	armed := n.electionAt
	n.mu.Unlock()
	req := &VoteRequest{
		Term:        next,
		CandidateID: n.cfg.ID,
		LastIndex:   n.jr.LastIndex(),
		LastTerm:    n.jr.LastTerm(),
		PreVote:     true,
	}
	if !n.tally(n.poll(req)) {
		return // the re-armed clock retries
	}

	n.mu.Lock()
	if n.term >= next || !n.electionAt.Equal(armed) {
		// Meanwhile a term moved, a leader was heard or a vote was cast.
		n.mu.Unlock()
		return
	}
	prevVote := n.votedFor
	n.term = next
	n.role = Candidate
	n.votedFor = n.cfg.ID
	n.leaderID = ""
	n.resetElectionLocked()
	vote := *req // the pre-vote round may still be sending req
	vote.PreVote = false
	// The requests leave before this node's own vote is durable: the
	// peers' writes and ours overlap instead of queueing on one disk, and
	// a member whose clock fires a moment later finds the request waiting
	// and grants it instead of running a round of its own. Our vote
	// counts only once written (tally runs after persistLocked).
	votes := n.poll(&vote)
	if err := n.persistLocked(); err != nil {
		n.term, n.votedFor, n.role = next-1, prevVote, Follower
		slog.Warn("election aborted", "member", n.cfg.ID, "term", next, "err", err)
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()

	slog.Info("election started", "member", n.cfg.ID, "term", next, "index", vote.LastIndex, "log_term", vote.LastTerm)
	if !n.tally(votes) {
		// Lost (split vote or unreachable quorum): retry after a short
		// randomized backoff rather than a full election timeout, so even
		// a split vote resolves within the one-TTL failover budget.
		n.mu.Lock()
		if n.role == Candidate && n.term == next {
			backoff := 5*time.Millisecond + time.Duration(rand.Int63n(int64(n.ttl/8)+1))
			n.electionAt = time.Now().Add(backoff)
		}
		n.mu.Unlock()
		return
	}
	n.mu.Lock()
	if n.role != Candidate || n.term != next {
		n.mu.Unlock()
		return
	}
	n.role = Leader
	n.leaderID = n.cfg.ID
	last := n.jr.LastIndex()
	n.termStart = last + 1
	now := time.Now()
	for _, p := range n.peers {
		p.mu.Lock()
		p.next = last + 1
		p.match = 0
		p.lastAck = now
		p.mu.Unlock()
	}
	n.mu.Unlock()
	n.mdm.LeadLeases()
	n.kickShippers() // first heartbeat asserts the lease immediately
	// The term-start record is an entry of this term, so its commit commits
	// and publishes every earlier entry without waiting for a client write.
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		if err := n.replicate(journal.Record{Op: journal.OpTermStart}); err != nil {
			slog.Info("term start failed", "member", n.cfg.ID, "term", next, "err", err)
			return
		}
		slog.Info("election won", "member", n.cfg.ID, "term", next, "index", last)
	}()
}

// poll fans req to every peer; each answer arrives on the returned
// channel as a grant or not. A reply from a later term deposes this node.
func (n *Node) poll(req *VoteRequest) <-chan bool {
	votes := make(chan bool, len(n.peers))
	for _, p := range n.peers {
		go func(p *peer) {
			var resp VoteResponse
			if err := n.peerCall(p, wire.TypeReplVote, req, &resp, n.voteTimeout()); err != nil {
				votes <- false
				return
			}
			if resp.Term > req.Term {
				n.stepDown(resp.Term)
				votes <- false
				return
			}
			votes <- resp.Granted
		}(p)
	}
	return votes
}

// tally reports whether a quorum, this node included, granted a poll. It
// returns as soon as a quorum is won or can no longer be.
func (n *Node) tally(votes <-chan bool) bool {
	granted, pending := 1, len(n.peers)
	for granted < n.quorum && granted+pending >= n.quorum {
		if <-votes {
			granted++
		}
		pending--
	}
	return granted >= n.quorum
}

// shipper drives one peer: woken by new appends, ticking at the
// heartbeat interval otherwise (an empty append IS the heartbeat).
func (n *Node) shipper(p *peer) {
	defer n.wg.Done()
	t := time.NewTicker(n.heartbeatInterval())
	defer t.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case <-p.notify:
		case <-t.C:
		}
		if n.suspended.Load() {
			continue
		}
		n.mu.Lock()
		lead := n.role == Leader
		n.mu.Unlock()
		if lead {
			n.shipTo(p)
		}
	}
}

// shipTo pushes the peer's missing suffix, rewinding on log-matching
// refusals and falling back to a snapshot when the suffix has been
// compacted away. Only the peer's shipper goroutine calls this.
func (n *Node) shipTo(p *peer) {
	for {
		n.mu.Lock()
		if n.role != Leader {
			n.mu.Unlock()
			return
		}
		term := n.term
		n.mu.Unlock()

		p.mu.Lock()
		next := p.next
		p.mu.Unlock()
		if next == 0 {
			next = 1
		}
		entries, _, err := n.jr.Entries(next - 1)
		if errors.Is(err, journal.ErrCompacted) {
			// The suffix this follower needs has been folded into the
			// snapshot (compaction ran since it fell behind) — ship the
			// checkpoint instead of erroring.
			if !n.shipSnapshot(p, term) {
				return
			}
			continue
		}
		if err != nil {
			return
		}
		prevIndex := next - 1
		prevTerm, _ := n.jr.TermAt(prevIndex)
		req := &AppendRequest{
			Term: term, LeaderID: n.cfg.ID,
			PrevIndex: prevIndex, PrevTerm: prevTerm, Entries: entries,
			Quarantined: n.mdm.Quarantined(), LeaderCommit: n.mdm.Published(),
		}
		var resp AppendResponse
		if err := n.peerCall(p, wire.TypeReplAppend, req, &resp, n.callTimeout()); err != nil {
			p.mu.Lock()
			p.reachable = false
			p.mu.Unlock()
			return
		}
		if resp.Term > term {
			n.stepDown(resp.Term)
			return
		}
		if resp.Ok {
			match := prevIndex + uint64(len(entries))
			p.mu.Lock()
			if match > p.match {
				p.match = match
			}
			p.next = p.match + 1
			p.lastAck = time.Now()
			p.reachable = true
			p.mu.Unlock()
			n.advanceCommit()
			if n.jr.LastIndex() <= match {
				return // caught up
			}
			continue // records landed while we were shipping
		}
		// Log-matching refusal: rewind toward the follower's hint, always
		// by at least one so the loop makes progress.
		p.mu.Lock()
		switch {
		case resp.LastIndex+1 < next:
			p.next = resp.LastIndex + 1
		case next > 1:
			p.next = next - 1
		}
		if p.next == 0 {
			p.next = 1
		}
		p.mu.Unlock()
	}
}

// shipSnapshot streams the current checkpoint to a follower that is
// behind the compaction horizon. Returns false when shipping should
// stop (peer unreachable, deposed, transfer refused).
func (n *Node) shipSnapshot(p *peer, term uint64) bool {
	snap, err := n.jr.SnapshotNow()
	if err != nil {
		slog.Warn("snapshot capture failed", "member", n.cfg.ID, "err", err)
		return false
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return false
	}
	var chunks [][]byte
	for len(data) > snapChunkBytes {
		chunks = append(chunks, data[:snapChunkBytes])
		data = data[snapChunkBytes:]
	}
	chunks = append(chunks, data)
	for i, c := range chunks {
		req := &SnapshotChunk{
			Term: term, LeaderID: n.cfg.ID,
			Index: snap.Index, SnapTerm: snap.Term,
			Seq: i, Last: i == len(chunks)-1, Data: c,
		}
		var resp SnapshotResponse
		if err := n.peerCall(p, wire.TypeReplSnapshot, req, &resp, n.callTimeout()); err != nil {
			p.mu.Lock()
			p.reachable = false
			p.mu.Unlock()
			return false
		}
		if resp.Term > term {
			n.stepDown(resp.Term)
			return false
		}
		if !resp.Ok {
			return false
		}
	}
	p.mu.Lock()
	p.match = snap.Index
	p.next = snap.Index + 1
	p.lastAck = time.Now()
	p.reachable = true
	p.snapshots++
	p.mu.Unlock()
	n.advanceCommit()
	slog.Info("snapshot shipped", "member", n.cfg.ID, "index", snap.Index, "peer", p.addr)
	return true
}

// peerCall sends one request on the peer's pooled connection.
func (n *Node) peerCall(p *peer, msgType string, req, resp any, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return n.conns.Call(ctx, p.addr, msgType, req, resp)
}
