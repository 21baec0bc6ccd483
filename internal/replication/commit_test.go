package replication_test

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gupster/internal/core"
	"gupster/internal/eventlog"
	"gupster/internal/journal"
	"gupster/internal/policy"
	"gupster/internal/replication"
	"gupster/internal/wire"
)

// newLoneFollower is a member fed by hand through HandleAppend, as a
// leader's shipper would.
func newLoneFollower(t *testing.T) (*replication.Node, *core.MDM) {
	t.Helper()
	m := core.New(core.Config{})
	if _, err := core.OpenMember(m, t.TempDir(), journal.Options{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	n, err := replication.NewNode(m, replication.Config{ID: "127.0.0.1:1", TTL: testTTL})
	if err != nil {
		t.Fatal(err)
	}
	return n, m
}

func regAt(term uint64, k int) journal.Record {
	return journal.Record{Term: term, Op: journal.OpRegister, Register: &wire.RegisterRequest{
		Store: "s1", Address: "127.0.0.1:9999", Path: fmt.Sprintf("/user[@id='u%d']/presence", k),
	}}
}

func appendOK(t *testing.T, n *replication.Node, req *replication.AppendRequest) {
	t.Helper()
	resp, err := n.HandleAppend(req)
	if err != nil || !resp.Ok {
		t.Fatalf("append %+v: %+v, %v", req, resp, err)
	}
}

// A follower holds shipped entries in its log but serves only what the
// leader's commit index covers: until a LeaderCommit reaches them, a read
// at the follower does not see them.
func TestFollowerServesOnlyCommittedEntries(t *testing.T) {
	n, m := newLoneFollower(t)
	appendOK(t, n, &replication.AppendRequest{
		Term: 1, LeaderID: "l", Entries: []journal.Record{regAt(1, 0), regAt(1, 1), regAt(1, 2)},
	})
	if got := n.Status().LastIndex; got != 3 {
		t.Fatalf("log holds %d entries, want 3", got)
	}
	for k := 0; k < 3; k++ {
		if covered(m, fmt.Sprintf("/user[@id='u%d']/presence", k)) {
			t.Fatalf("the follower served uncommitted entry %d", k+1)
		}
	}

	appendOK(t, n, &replication.AppendRequest{Term: 1, LeaderID: "l", PrevIndex: 3, PrevTerm: 1, LeaderCommit: 2})
	for k, want := range []bool{true, true, false} {
		if got := covered(m, fmt.Sprintf("/user[@id='u%d']/presence", k)); got != want {
			t.Fatalf("after LeaderCommit 2: entry %d served = %v, want %v", k+1, got, want)
		}
	}
	if got := m.Published(); got != 2 {
		t.Fatalf("published index %d, want 2", got)
	}
	appendOK(t, n, &replication.AppendRequest{Term: 1, LeaderID: "l", PrevIndex: 3, PrevTerm: 1, LeaderCommit: 3})
	if !covered(m, "/user[@id='u2']/presence") {
		t.Fatal("the follower did not serve entry 3 once a LeaderCommit covered it")
	}
}

// A deposed leader's uncommitted tail is cut by the next leader's append
// without rebuilding the directory: it was never published, so the
// follower's live subscriptions stay attached and what it serves is the
// committed prefix before and after the cut.
func TestDivergentUncommittedTailIsCutWithoutRestore(t *testing.T) {
	n, m := newLoneFollower(t)
	appendOK(t, n, &replication.AppendRequest{
		Term: 1, LeaderID: "old", Entries: []journal.Record{regAt(1, 0), regAt(1, 1), regAt(1, 2)}, LeaderCommit: 1,
	})
	var mu sync.Mutex
	var notes []wire.Notification
	cancel, err := m.Subscribe(&wire.SubscribeRequest{
		Path:    "/user[@id='u0']/presence",
		Context: policy.Context{Requester: "u0", Role: "self"},
	}, func(n wire.Notification) {
		mu.Lock()
		notes = append(notes, n)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	appendOK(t, n, &replication.AppendRequest{
		Term: 2, LeaderID: "new", PrevIndex: 1, PrevTerm: 1, Entries: []journal.Record{regAt(2, 7)}, LeaderCommit: 2,
	})
	if st := n.Status(); st.LastIndex != 2 {
		t.Fatalf("after the cut the log ends at %d, want 2", st.LastIndex)
	}
	for path, want := range map[string]bool{
		"/user[@id='u0']/presence": true,
		"/user[@id='u1']/presence": false,
		"/user[@id='u2']/presence": false,
		"/user[@id='u7']/presence": true,
	} {
		if got := covered(m, path); got != want {
			t.Errorf("%s served = %v, want %v", path, got, want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, note := range notes {
		if note.Canceled {
			t.Fatal("the cut rebuilt the directory: a live subscription got a tombstone")
		}
	}
}

// A cut below the published index would take back what the follower has
// served: the append is refused, loudly, and the log keeps the entry.
func TestCutBelowPublishedIsRefused(t *testing.T) {
	events := eventlog.Install(slog.LevelInfo)
	defer events.Remove()
	n, m := newLoneFollower(t)
	appendOK(t, n, &replication.AppendRequest{
		Term: 1, LeaderID: "old", Entries: []journal.Record{regAt(1, 0), regAt(1, 1)}, LeaderCommit: 2,
	})
	if _, err := n.HandleAppend(&replication.AppendRequest{
		Term: 2, LeaderID: "new", PrevIndex: 1, PrevTerm: 1, Entries: []journal.Record{regAt(2, 7)},
	}); err == nil {
		t.Fatal("a cut below the published index was accepted")
	}
	if !covered(m, "/user[@id='u1']/presence") || n.Status().LastIndex != 2 {
		t.Fatal("the refused cut removed a published entry")
	}
	refused := eventlog.Is("refused to cut published entries")
	var evs []eventlog.Event
	for _, ev := range events.Since(0) {
		if refused(ev) {
			evs = append(evs, ev)
		}
	}
	if len(evs) != 1 || evs[0].Level != slog.LevelError {
		t.Fatalf("refusal events %+v, want one at Error", evs)
	}
}

// fakePeer is the other member of a two-member constellation: it grants
// every vote and refuses every append until ack is closed, then acks each
// as if it had landed.
func fakePeer(t *testing.T, ack <-chan struct{}) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	x := &wire.Mux{}
	wire.Route(x, wire.TypeReplVote, func(_ context.Context, req *replication.VoteRequest) (*replication.VoteResponse, error) {
		return &replication.VoteResponse{Term: req.Term, Granted: true}, nil
	})
	wire.Route(x, wire.TypeReplAppend, func(_ context.Context, req *replication.AppendRequest) (*replication.AppendResponse, error) {
		select {
		case <-ack:
		default:
			return nil, errors.New("fake peer: not acking yet")
		}
		return &replication.AppendResponse{Term: req.Term, Ok: true, LastIndex: req.PrevIndex + uint64(len(req.Entries))}, nil
	})
	srv := wire.ServeListener(ln, x)
	t.Cleanup(func() { _ = srv.Close() })
	return ln.Addr().String()
}

// A new leader's log can hold an entry an earlier leader committed and
// acknowledged that this member has not yet published. Until its
// term-start record commits it holds the leader-only routes: it neither
// refuses an unregister of that entry nor dumps a directory without it.
func TestNewLeaderHoldsLeaderOnlyRoutesUntilTermStartCommits(t *testing.T) {
	ack := make(chan struct{})
	peer := fakePeer(t, ack)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	m := core.New(core.Config{})
	if _, err := core.OpenMember(m, t.TempDir(), journal.Options{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	n, err := replication.NewNode(m, replication.Config{ID: addr, Peers: []string{peer}, TTL: testTTL})
	if err != nil {
		t.Fatal(err)
	}
	// The term-1 leader committed u0, then died before its next append
	// carried the commit index here.
	appendOK(t, n, &replication.AppendRequest{Term: 1, LeaderID: "old", Entries: []journal.Record{regAt(1, 0)}})
	n.Start(ln, wire.HandlerFunc(n.Handle))
	t.Cleanup(func() { _ = n.Close() })
	for deadline := time.Now().Add(5 * time.Second); n.Status().Role != "leader"; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the member never won an election")
		}
	}
	if covered(m, "/user[@id='u0']/presence") {
		t.Fatal("the new leader published u0 before any entry of its term committed")
	}

	// One connection per call: a client drops a connection whose call
	// timed out.
	call := func(timeout time.Duration, typ string, req, resp any) error {
		cli, err := wire.Dial(addr)
		if err != nil {
			return err
		}
		defer cli.Close()
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		return cli.Call(ctx, typ, req, resp)
	}
	unreg := &wire.UnregisterRequest{Store: "s1", Path: "/user[@id='u0']/presence"}
	held := func(what string, err error) {
		t.Helper()
		var nl *wire.NotLeaderError
		deadline := err != nil && strings.Contains(err.Error(), context.DeadlineExceeded.Error())
		if !deadline && !errors.As(err, &nl) {
			t.Fatalf("%s before the term-start commit: err = %v, want it held to its deadline or redirected", what, err)
		}
	}
	held("unregister", call(50*time.Millisecond, wire.TypeUnregister, unreg, nil))
	var dump wire.ShardCoverageResponse
	held("coverage dump", call(50*time.Millisecond, wire.TypeShardCoverage, wire.Empty{}, &dump))

	close(ack)
	// The lease may have lapsed meanwhile (the peer acked nothing), and a
	// re-election redirects to nobody for a moment.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		err := call(time.Second, wire.TypeUnregister, unreg, nil)
		if err == nil {
			break
		}
		var nl *wire.NotLeaderError
		if !errors.As(err, &nl) || time.Now().After(deadline) {
			t.Fatalf("unregister of u0 once the term-start committed: %v", err)
		}
	}
	if covered(m, "/user[@id='u0']/presence") {
		t.Fatal("u0 still served after its unregister")
	}
}
