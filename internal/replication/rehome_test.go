package replication_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"gupster/internal/core"
	"gupster/internal/federation"
	"gupster/internal/journal"
	"gupster/internal/policy"
	"gupster/internal/store"
	"gupster/internal/wire"
	"gupster/internal/xpath"
)

// A MirrorClient whose address list starts at a follower transparently
// follows the not-leader redirect: mutations land on the leader and
// replicate, with no caller-visible error.
func TestMirrorClientFollowsRedirect(t *testing.T) {
	c := newCluster(t, 3, journal.Options{})
	lead := c.waitLeader(4 * testTTL)
	follower := (lead + 1) % 3

	// Order the list so the client homes on a follower first.
	addrs := []string{c.addrs[follower], c.addrs[(lead+2)%3], c.addrs[lead]}
	mc, err := federation.DialMirrors(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := mc.Call(ctx, wire.TypeRegister, &wire.RegisterRequest{
		Store: "s1", Address: "127.0.0.1:9999", Path: "/user[@id='mc']/presence",
	}, nil); err != nil {
		t.Fatalf("MirrorClient register via follower: %v", err)
	}
	for i, m := range c.mdms {
		if !waitCovered(t, m, "/user[@id='mc']/presence", 4*testTTL) {
			t.Errorf("node %d missing registration made through MirrorClient", i)
		}
	}
	// Reads keep working against whatever member the client is homed on.
	var stats wire.StatsResponse
	if err := mc.Call(ctx, wire.TypeStats, wire.Empty{}, &stats); err != nil {
		t.Fatalf("stats through MirrorClient: %v", err)
	}
	if stats.Repl == nil {
		t.Fatal("replicated member reports no repl status")
	}
}

// A store registrar configured with a follower's address re-homes to the
// leader and completes its coverage announcement.
func TestRegistrarFollowsRedirect(t *testing.T) {
	c := newCluster(t, 3, journal.Options{})
	lead := c.waitLeader(4 * testTTL)
	follower := (lead + 2) % 3

	r := store.NewRegistrar(store.RegistrarConfig{
		Store: "sX", Addr: "127.0.0.1:9998", MDM: c.addrs[follower],
		Coverage: []string{"/user[@id='reg']/presence", "/user[@id='reg']/calendar"},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Start(ctx); err != nil {
		t.Fatalf("registrar start against follower: %v", err)
	}
	defer r.Close()
	for i, m := range c.mdms {
		for _, p := range []string{"/user[@id='reg']/presence", "/user[@id='reg']/calendar"} {
			if !waitCovered(t, m, p, 4*testTTL) {
				t.Errorf("node %d missing registrar coverage %s", i, p)
			}
		}
	}
}

// A core.Client dialed at a follower chases the not-leader redirect for
// shield mutations: PutRule lands on the leader and replicates, with no
// caller-visible refusal (the gupctl path).
func TestCoreClientFollowsRedirect(t *testing.T) {
	c := newCluster(t, 3, journal.Options{})
	lead := c.waitLeader(4 * testTTL)
	follower := (lead + 1) % 3

	cli, err := core.DialMDM(c.addrs[follower], "redir", "self")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rule := policy.Rule{
		ID:     "r1",
		Effect: policy.Permit,
		Path:   xpath.MustParse("/user[@id='redir']/presence"),
	}
	if err := cli.PutRule(ctx, "redir", rule); err != nil {
		t.Fatalf("PutRule via follower: %v", err)
	}
	deadline := time.Now().Add(4 * testTTL)
	for i, m := range c.mdms {
		for {
			found := false
			for _, r := range m.ShieldSnapshot() {
				if r.Owner == "redir" {
					found = true
				}
			}
			if found {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d missing shield rule provisioned through a follower", i)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// followerFront stands in front of one constellation member and relays
// every frame to it, counting the shield mutations that arrive: what the
// member itself sees, measured server-side.
type followerFront struct {
	srv       *wire.Server
	member    *wire.Client
	mutations atomic.Int64
}

func (f *followerFront) ServeWire(c *wire.ServerConn, m *wire.Message) {
	if m.Type == wire.TypePutRule {
		f.mutations.Add(1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var reply wire.Payload
	err := f.member.Call(ctx, m.Type, m.Payload, &reply)
	if err != nil {
		_ = c.ReplyError(m, err) // a not-leader verdict passes through typed
		return
	}
	_ = c.Reply(m, reply)
}

// Regression: core.Client started every call at the address it was dialed
// at. Dialed at a follower it re-paid the follower hop on every mutation
// (the leader connection was cached, the leader was not remembered), and
// when the dialed member died every call failed although the client knew
// the leader's address. The client must start where it was last answered
// and leave a dead address for one it has learnt.
func TestCoreClientRemembersLeaderAndLeavesDeadMember(t *testing.T) {
	c := newCluster(t, 3, journal.Options{})
	lead := c.waitLeader(4 * testTTL)
	follower := (lead + 1) % 3
	c.waitFollows(follower, lead, 4*testTTL)

	member, err := wire.Dial(c.addrs[follower])
	if err != nil {
		t.Fatal(err)
	}
	defer member.Close()
	front := &followerFront{member: member}
	if front.srv, err = wire.Serve("127.0.0.1:0", front); err != nil {
		t.Fatal(err)
	}
	defer front.srv.Close()

	cli, err := core.DialMDM(front.srv.Addr(), "redir", "self")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	putRule := func(id string) error {
		return cli.PutRule(ctx, "redir", policy.Rule{
			ID: id, Effect: policy.Permit, Path: xpath.MustParse("/user[@id='redir']/presence"),
		})
	}

	// (a) Two mutations through a follower: only the first may pay the hop.
	for _, id := range []string{"r1", "r2"} {
		if err := putRule(id); err != nil {
			t.Fatalf("PutRule %s via follower: %v", id, err)
		}
	}
	if n := front.mutations.Load(); n != 1 {
		t.Errorf("the dialed follower saw %d mutations, want 1: the second must go straight to the leader", n)
	}

	// (b) The dialed member dies: reads and mutations carry on at the
	// address the client learnt. (The cluster's MDMs carry no signer, so
	// the read is a stats fetch rather than a resolve.)
	front.srv.Close()
	if st, err := cli.Stats(ctx); err != nil {
		t.Fatalf("read after the dialed member died: %v", err)
	} else if st.Repl == nil || st.Repl.Role != "leader" {
		t.Fatalf("read after the dialed member died was answered by %+v, want the learnt leader", st.Repl)
	}
	if err := putRule("r3"); err != nil {
		t.Fatalf("PutRule after the dialed member died: %v", err)
	}
}
