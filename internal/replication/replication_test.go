package replication_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"gupster/internal/core"
	"gupster/internal/journal"
	"gupster/internal/replication"
	"gupster/internal/wire"
)

const testTTL = 500 * time.Millisecond

// cluster is an in-process constellation: n MDMs, each durable in its
// own temp dir, each wrapped in a replication node listening on
// loopback.
type cluster struct {
	t     *testing.T
	nodes []*replication.Node
	mdms  []*core.MDM
	addrs []string
	dirs  []string
}

// newCluster builds an n-member constellation. Members whose index is
// in deferred are fully constructed but not started — their listeners
// stay closed until startDeferred, simulating a member that joins late.
func newCluster(t *testing.T, n int, opts journal.Options, deferred ...int) *cluster {
	t.Helper()
	c := &cluster{t: t}
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		c.addrs = append(c.addrs, ln.Addr().String())
	}
	isDeferred := func(i int) bool {
		for _, d := range deferred {
			if d == i {
				return true
			}
		}
		return false
	}
	for i := 0; i < n; i++ {
		dir := t.TempDir()
		c.dirs = append(c.dirs, dir)
		m := core.New(core.Config{})
		if _, err := core.OpenDurable(m, dir, opts); err != nil {
			t.Fatal(err)
		}
		var peers []string
		for j, a := range c.addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		node, err := replication.NewNode(m, replication.Config{
			ID:    c.addrs[i],
			Peers: peers,
			TTL:   testTTL,
			Logf:  t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.mdms = append(c.mdms, m)
		c.nodes = append(c.nodes, node)
		if isDeferred(i) {
			_ = lns[i].Close()
		} else {
			node.Start(lns[i], wire.HandlerFunc(node.Handle))
		}
	}
	t.Cleanup(func() {
		for i, node := range c.nodes {
			if node != nil {
				_ = node.Close()
			}
			if c.mdms[i] != nil {
				c.mdms[i].Close()
			}
		}
	})
	return c
}

// startDeferred brings a deferred member online on its original address.
func (c *cluster) startDeferred(i int) {
	c.t.Helper()
	ln, err := net.Listen("tcp", c.addrs[i])
	if err != nil {
		c.t.Fatal(err)
	}
	c.nodes[i].Start(ln, wire.HandlerFunc(c.nodes[i].Handle))
}

// waitLeader polls until exactly one started node reports itself leader
// and returns its index.
func (c *cluster) waitLeader(timeout time.Duration) int {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		leader := -1
		count := 0
		for i, n := range c.nodes {
			if st := n.Status(); st.Role == "leader" {
				leader = i
				count++
			}
		}
		if count == 1 {
			return leader
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.t.Fatalf("no single leader within %v", timeout)
	return -1
}

// waitNewLeader waits for a leader other than exclude among the live
// members, returning its index and how long detection+election took.
func (c *cluster) waitNewLeader(exclude int, timeout time.Duration) (int, time.Duration) {
	c.t.Helper()
	start := time.Now()
	deadline := start.Add(timeout)
	for time.Now().Before(deadline) {
		for i, n := range c.nodes {
			if i == exclude {
				continue
			}
			if st := n.Status(); st.Role == "leader" {
				return i, time.Since(start)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.t.Fatalf("no new leader within %v", timeout)
	return -1, 0
}

func register(t *testing.T, addr, store, path string) error {
	t.Helper()
	cli, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return cli.Call(ctx, wire.TypeRegister, &wire.RegisterRequest{
		Store: store, Address: "127.0.0.1:9999", Path: path,
	}, nil)
}

func covered(m *core.MDM, path string) bool {
	for _, reg := range m.CoverageSnapshot() {
		if reg.Path == path {
			return true
		}
	}
	return false
}

// waitCovered polls for a registration to appear in a replica's
// directory: a follower journals a shipped batch before applying it, so
// its log index can lead its directory by a moment.
func waitCovered(t *testing.T, m *core.MDM, path string, timeout time.Duration) bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if covered(m, path) {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitConverged(t *testing.T, c *cluster, want uint64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		all := true
		for _, n := range c.nodes {
			if st := n.Status(); st.LastIndex < want {
				all = false
				break
			}
		}
		if all {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i, n := range c.nodes {
		t.Logf("node %d: %+v", i, n.Status())
	}
	t.Fatalf("constellation did not converge to index %d within %v", want, timeout)
}

// A 3-member constellation elects one leader; registrations through the
// leader land on every replica.
func TestElectAndReplicate(t *testing.T) {
	c := newCluster(t, 3, journal.Options{})
	lead := c.waitLeader(4 * testTTL)

	const regs = 5
	for k := 0; k < regs; k++ {
		path := fmt.Sprintf("/user[@id='u%d']/presence", k)
		if err := register(t, c.addrs[lead], "s1", path); err != nil {
			t.Fatalf("register %d: %v", k, err)
		}
	}
	waitConverged(t, c, regs, 4*testTTL)
	for i, m := range c.mdms {
		for k := 0; k < regs; k++ {
			path := fmt.Sprintf("/user[@id='u%d']/presence", k)
			if !waitCovered(t, m, path, 2*testTTL) {
				t.Errorf("node %d missing replicated coverage %s", i, path)
			}
		}
	}
}

// A follower refuses mutations with a redirect naming the leader.
func TestFollowerRedirectsMutations(t *testing.T) {
	c := newCluster(t, 3, journal.Options{})
	lead := c.waitLeader(4 * testTTL)
	follower := (lead + 1) % 3

	err := register(t, c.addrs[follower], "s1", "/user[@id='u']/presence")
	var nl *wire.NotLeaderError
	if !errors.As(err, &nl) {
		t.Fatalf("follower accepted a mutation (err=%v), want NotLeaderError", err)
	}
	if nl.LeaderAddr != c.addrs[lead] {
		t.Fatalf("redirect points at %q, want leader %q", nl.LeaderAddr, c.addrs[lead])
	}
}

// Killing the leader elects a replacement within one lease TTL, and no
// acknowledged registration is lost across the failover.
func TestLeaderFailoverUnderOneTTL(t *testing.T) {
	c := newCluster(t, 3, journal.Options{})
	lead := c.waitLeader(4 * testTTL)

	const regs = 8
	for k := 0; k < regs; k++ {
		path := fmt.Sprintf("/user[@id='u%d']/presence", k)
		if err := register(t, c.addrs[lead], "s1", path); err != nil {
			t.Fatalf("register %d: %v", k, err)
		}
	}

	// "Crash" the leader: listener down, loops stopped, no goodbyes.
	if err := c.nodes[lead].Close(); err != nil {
		t.Logf("leader close: %v", err)
	}
	c.nodes[lead] = nil

	newLead, took := c.waitNewLeader(lead, 4*testTTL)
	// Detection starts at the moment of the kill, so the whole failover
	// must fit in one TTL (election timeout is TTL/2+TTL/4 jitter, plus
	// one vote round trip); allow scheduling slack beyond the bound.
	if took > testTTL+200*time.Millisecond {
		t.Errorf("failover took %v, want < ~%v", took, testTTL)
	}
	t.Logf("failover to node %d in %v", newLead, took)

	// Every acknowledged registration survived.
	for k := 0; k < regs; k++ {
		path := fmt.Sprintf("/user[@id='u%d']/presence", k)
		if !waitCovered(t, c.mdms[newLead], path, 2*testTTL) {
			t.Errorf("acknowledged registration %s lost across failover", path)
		}
	}
	// And the new leader accepts writes.
	if err := register(t, c.addrs[newLead], "s2", "/user[@id='after']/presence"); err != nil {
		t.Fatalf("register after failover: %v", err)
	}
}

// Split-brain regression: a deposed leader with a stale term must not
// acknowledge writes while partitioned, must redirect to the new leader
// once healed, and its divergent unacknowledged tail must be truncated.
func TestSplitBrainDeposedLeaderRedirects(t *testing.T) {
	c := newCluster(t, 3, journal.Options{})
	lead := c.waitLeader(4 * testTTL)

	if err := register(t, c.addrs[lead], "s1", "/user[@id='pre']/presence"); err != nil {
		t.Fatal(err)
	}

	// Partition the leader: it stops heartbeating and shipping but still
	// believes it leads until its lease check or a higher term reaches it.
	c.nodes[lead].SuspendHeartbeats(true)
	newLead, _ := c.waitNewLeader(lead, 4*testTTL)
	oldTerm := c.nodes[lead].Status().Term
	newTerm := c.nodes[newLead].Status().Term
	if newTerm <= oldTerm {
		t.Fatalf("new leader term %d not ahead of deposed term %d", newTerm, oldTerm)
	}

	// A write to the stale leader must NOT be acknowledged: either it
	// already noticed it lost its lease (redirect) or it times out
	// waiting for a quorum it cannot reach.
	err := register(t, c.addrs[lead], "s1", "/user[@id='split']/presence")
	if err == nil {
		t.Fatal("stale leader acknowledged a write with no quorum")
	}
	t.Logf("stale-leader write refused: %v", err)

	// Meanwhile the healthy side keeps accepting writes.
	if err := register(t, c.addrs[newLead], "s2", "/user[@id='healthy']/presence"); err != nil {
		t.Fatalf("register at new leader: %v", err)
	}

	// Heal the partition. The old leader must learn the higher term,
	// demote itself, and redirect with the new leader's address.
	c.nodes[lead].SuspendHeartbeats(false)
	deadline := time.Now().Add(4 * testTTL)
	for time.Now().Before(deadline) {
		if st := c.nodes[lead].Status(); st.Role == "follower" && st.Term >= newTerm {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	err = register(t, c.addrs[lead], "s1", "/user[@id='post']/presence")
	var nl *wire.NotLeaderError
	if !errors.As(err, &nl) {
		t.Fatalf("deposed leader did not redirect: %v", err)
	}
	if nl.LeaderAddr != c.addrs[newLead] {
		t.Fatalf("redirect points at %q, want %q", nl.LeaderAddr, c.addrs[newLead])
	}

	// The deposed leader's unacknowledged divergent record must be gone
	// after it re-syncs with the new leader, while the healthy-side write
	// must be present.
	deadline = time.Now().Add(8 * testTTL)
	for time.Now().Before(deadline) {
		if covered(c.mdms[lead], "/user[@id='healthy']/presence") &&
			!covered(c.mdms[lead], "/user[@id='split']/presence") {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if covered(c.mdms[lead], "/user[@id='split']/presence") {
		t.Error("divergent unacknowledged registration survived on the deposed leader")
	}
	if !covered(c.mdms[lead], "/user[@id='healthy']/presence") {
		t.Error("deposed leader never caught up with the new leader's log")
	}
	if !covered(c.mdms[lead], "/user[@id='pre']/presence") {
		t.Error("pre-partition registration lost on the deposed leader")
	}
}

// A member that joins after the leader has compacted its log is caught
// up by snapshot, not an error — the compaction/catch-up race fix.
func TestLateJoinerCatchesUpViaSnapshot(t *testing.T) {
	const late = 2
	c := newCluster(t, 3, journal.Options{CompactEvery: 8}, late)
	lead := c.waitLeader(4 * testTTL)
	if lead == late {
		t.Fatalf("deferred member %d became leader", late)
	}

	// Enough writes to run compaction at the leader several times, so the
	// prefix the late joiner needs is gone from the live log.
	const regs = 30
	for k := 0; k < regs; k++ {
		path := fmt.Sprintf("/user[@id='u%d']/presence", k)
		if err := register(t, c.addrs[lead], "s1", path); err != nil {
			t.Fatalf("register %d: %v", k, err)
		}
	}
	if base := c.nodes[lead].Status().Base; base == 0 {
		t.Fatal("leader never compacted; test needs a truncated prefix")
	}

	c.startDeferred(late)
	waitConverged(t, c, regs, 8*testTTL)
	for k := 0; k < regs; k++ {
		path := fmt.Sprintf("/user[@id='u%d']/presence", k)
		if !waitCovered(t, c.mdms[late], path, 2*testTTL) {
			t.Fatalf("late joiner missing %s after snapshot catch-up", path)
		}
	}
	// Some member's view of the late joiner records a snapshot transfer
	// (checked across members in case leadership moved mid-test; the
	// bookkeeping lands just after the follower installs, so poll).
	var shipped uint64
	deadline := time.Now().Add(2 * testTTL)
	for shipped == 0 && time.Now().Before(deadline) {
		for i, n := range c.nodes {
			if i == late {
				continue
			}
			for _, p := range n.Status().Peers {
				if p.Addr == c.addrs[late] && p.Snapshots > shipped {
					shipped = p.Snapshots
				}
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if shipped == 0 {
		t.Error("late joiner converged without a snapshot transfer (expected catch-up past the compaction horizon)")
	}
}

// A follower cut off across one leader compaction catches up from the
// records that compaction retained, not by snapshot: only a follower
// behind the previous compaction needs one.
func TestFollowerBehindOneCompactionCatchesUpFromEntries(t *testing.T) {
	c := newCluster(t, 3, journal.Options{CompactEvery: 8})
	lead := c.waitLeader(4 * testTTL)
	lag := (lead + 1) % 3

	const before, regs = 2, 12
	for k := 0; k < regs; k++ {
		if k == before {
			waitConverged(t, c, before, 4*testTTL)
			c.nodes[lag].SuspendHeartbeats(true)
		}
		if err := register(t, c.addrs[lead], "s1", fmt.Sprintf("/user[@id='u%d']/presence", k)); err != nil {
			t.Fatalf("register %d: %v", k, err)
		}
	}
	// The leader compacts on its journal's goroutine; let it land.
	deadline := time.Now().Add(4 * testTTL)
	for c.nodes[lead].Status().Base < 8 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if base := c.nodes[lead].Status().Base; base < 8 {
		t.Fatalf("leader base %d, want a compaction past the follower's index %d", base, before)
	}

	c.nodes[lag].SuspendHeartbeats(false)
	waitConverged(t, c, regs, 8*testTTL)
	for k := 0; k < regs; k++ {
		path := fmt.Sprintf("/user[@id='u%d']/presence", k)
		if !waitCovered(t, c.mdms[lag], path, 2*testTTL) {
			t.Fatalf("follower missing %s after catch-up", path)
		}
	}
	for i, n := range c.nodes {
		if i == lag {
			continue
		}
		for _, p := range n.Status().Peers {
			if p.Addr == c.addrs[lag] && p.Snapshots != 0 {
				t.Errorf("node %d shipped %d snapshots to a follower one compaction behind", i, p.Snapshots)
			}
		}
	}
}

// Election state survives a restart: a node that voted in term T must
// not vote again in T after reopening its directory.
func TestElectionStatePersists(t *testing.T) {
	dir := t.TempDir()
	m := core.New(core.Config{})
	if _, err := core.OpenDurable(m, dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	n1, err := replication.NewNode(m, replication.Config{ID: "127.0.0.1:1", Peers: []string{"127.0.0.1:2"}, TTL: testTTL})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := n1.HandleVote(&replication.VoteRequest{Term: 7, CandidateID: "a", LastIndex: 0, LastTerm: 0})
	if err != nil || !resp.Granted {
		t.Fatalf("vote: %+v, %v", resp, err)
	}
	m.Close()

	m2 := core.New(core.Config{})
	if _, err := core.OpenDurable(m2, dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	n2, err := replication.NewNode(m2, replication.Config{ID: "127.0.0.1:1", Peers: []string{"127.0.0.1:2"}, TTL: testTTL})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = n2.HandleVote(&replication.VoteRequest{Term: 7, CandidateID: "b", LastIndex: 100, LastTerm: 7})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Granted {
		t.Fatal("double vote in term 7 after restart")
	}
	// Same candidate asking again is fine (idempotent grant).
	resp, err = n2.HandleVote(&replication.VoteRequest{Term: 7, CandidateID: "a", LastIndex: 0, LastTerm: 0})
	if err != nil || !resp.Granted {
		t.Fatalf("re-grant to same candidate: %+v, %v", resp, err)
	}
}

// Beside a NoSync journal the election state is overwritten in place; a
// shorter state written over a longer one must still read back whole.
func TestElectionStatePersistsWithoutSync(t *testing.T) {
	dir := t.TempDir()
	open := func() (*core.MDM, *replication.Node) {
		m := core.New(core.Config{})
		if _, err := core.OpenDurable(m, dir, journal.Options{NoSync: true}); err != nil {
			t.Fatal(err)
		}
		n, err := replication.NewNode(m, replication.Config{ID: "127.0.0.1:1", Peers: []string{"127.0.0.1:2"}, TTL: testTTL})
		if err != nil {
			t.Fatal(err)
		}
		return m, n
	}
	m, n := open()
	for _, v := range []replication.VoteRequest{
		{Term: 7, CandidateID: "candidate-with-a-long-identity:65535"},
		{Term: 8, CandidateID: "b"},
	} {
		if resp, err := n.HandleVote(&v); err != nil || !resp.Granted {
			t.Fatalf("vote %+v: %+v, %v", v, resp, err)
		}
	}
	m.Close()

	m, n = open()
	defer m.Close()
	if term := n.Status().Term; term != 8 {
		t.Fatalf("term after reopen = %d, want 8", term)
	}
	if resp, err := n.HandleVote(&replication.VoteRequest{Term: 8, CandidateID: "c"}); err != nil || resp.Granted {
		t.Fatalf("double vote in term 8 after reopen: %+v, %v", resp, err)
	}
	if resp, err := n.HandleVote(&replication.VoteRequest{Term: 8, CandidateID: "b"}); err != nil || !resp.Granted {
		t.Fatalf("re-grant to the term's candidate: %+v, %v", resp, err)
	}
}

// A pre-vote moves no term and spends no vote: a follower answers it by
// the log rule alone, and the leader refuses it while it leads.
func TestPreVoteMovesNothing(t *testing.T) {
	c := newCluster(t, 3, journal.Options{})
	lead := c.waitLeader(4 * testTTL)
	if err := register(t, c.addrs[lead], "s1", "/user[@id='u']/presence"); err != nil {
		t.Fatal(err)
	}
	follower := (lead + 1) % 3
	if !waitCovered(t, c.mdms[follower], "/user[@id='u']/presence", 2*testTTL) {
		t.Fatal("the registration never reached the follower")
	}
	jr := c.mdms[follower].Journal()
	st := c.nodes[follower].Status()
	ask := func(i int, lastIndex, lastTerm uint64) *replication.VoteResponse {
		t.Helper()
		resp, err := c.nodes[i].HandleVote(&replication.VoteRequest{
			Term: st.Term + 1, CandidateID: "pre", LastIndex: lastIndex, LastTerm: lastTerm, PreVote: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if resp := ask(follower, jr.LastIndex(), jr.LastTerm()); !resp.Granted {
		t.Errorf("follower refused a pre-vote from a complete log: %+v", resp)
	}
	if resp := ask(follower, 0, 0); resp.Granted {
		t.Errorf("follower granted a pre-vote to an empty log: %+v", resp)
	}
	if resp := ask(lead, jr.LastIndex(), jr.LastTerm()); resp.Granted {
		t.Errorf("leader granted a pre-vote: %+v", resp)
	}
	if got := c.nodes[follower].Status().Term; got != st.Term {
		t.Errorf("pre-votes moved the follower's term %d -> %d", st.Term, got)
	}
	// The vote of the next term is still unspent.
	resp, err := c.nodes[follower].HandleVote(&replication.VoteRequest{
		Term: st.Term + 1, CandidateID: "real", LastIndex: jr.LastIndex(), LastTerm: jr.LastTerm(),
	})
	if err != nil || !resp.Granted {
		t.Errorf("vote after pre-votes: %+v, %v", resp, err)
	}
}
