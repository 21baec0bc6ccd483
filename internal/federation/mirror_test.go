package federation_test

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"gupster/internal/core"
	"gupster/internal/federation"
	"gupster/internal/overload"
	"gupster/internal/policy"
	"gupster/internal/schema"
	"gupster/internal/token"
	"gupster/internal/wire"
	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

// constellation builds n fully-meshed mirrors, each with its own MDM.
func constellation(t *testing.T, n int) ([]*core.MDM, []*wire.Server, []string) {
	t.Helper()
	mdms := make([]*core.MDM, n)
	mirrors := make([]*federation.Mirror, n)
	servers := make([]*wire.Server, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		mdms[i] = newMDM(t)
		mirrors[i] = federation.NewMirror(mdms[i])
		srv, err := mirrors[i].Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		addrs[i] = srv.Addr()
		i := i
		t.Cleanup(func() { srv.Close(); mirrors[i].Close() })
	}
	if err := federation.Join(mirrors, addrs); err != nil {
		t.Fatal(err)
	}
	return mdms, servers, addrs
}

func TestMirrorReplication(t *testing.T) {
	mdms, _, addrs := constellation(t, 3)
	st := newStore(t, "s1")
	st.Engine.Put("alice", xpath.MustParse("/user[@id='alice']/presence"), xmltree.MustParse(`<presence status="on"/>`))

	// A store registers coverage at mirror 0 only.
	reg, err := wire.Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	err = reg.Call(context.Background(), wire.TypeRegister, &wire.RegisterRequest{
		Store: "s1", Address: st.Addr(), Path: "/user[@id='alice']/presence",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Every mirror can now resolve the request.
	req := &wire.ResolveRequest{
		Path:    "/user[@id='alice']/presence",
		Context: policy.Context{Requester: "alice"},
		Verb:    token.VerbFetch,
	}
	for i := range mdms {
		resp, err := mdms[i].Resolve(context.Background(), req)
		if err != nil {
			t.Fatalf("mirror %d: %v", i, err)
		}
		if len(resp.Alternatives) != 1 {
			t.Fatalf("mirror %d: %+v", i, resp.Alternatives)
		}
	}

	// A shield rule provisioned at mirror 1 applies at mirror 2.
	err = callAt(t, addrs[1], wire.TypePutRule, &wire.PutRuleRequest{
		Owner: "alice",
		Rule: wire.RulePayload{
			ID: "fam", Path: "/user[@id='alice']/presence",
			Effect: "permit", Cond: "role=family",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	famReq := &wire.ResolveRequest{
		Path:    "/user[@id='alice']/presence",
		Context: policy.Context{Requester: "mom", Role: "family"},
		Verb:    token.VerbFetch,
	}
	if _, err := mdms[2].Resolve(context.Background(), famReq); err != nil {
		t.Fatalf("rule did not replicate to mirror 2: %v", err)
	}
	// Deleting it at mirror 2 removes it everywhere.
	err = callAt(t, addrs[2], wire.TypeDeleteRule, &wire.DeleteRuleRequest{Owner: "alice", RuleID: "fam"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mdms[0].Resolve(context.Background(), famReq); err == nil {
		t.Fatal("rule deletion did not replicate to mirror 0")
	}
	// Unregistration replicates too.
	err = reg.Call(context.Background(), wire.TypeUnregister, &wire.UnregisterRequest{
		Store: "s1", Path: "/user[@id='alice']/presence",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mdms[2].Resolve(context.Background(), req); err == nil {
		t.Fatal("unregistration did not replicate")
	}
}

func callAt(t *testing.T, addr, msgType string, req any) error {
	t.Helper()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	return c.Call(context.Background(), msgType, req, nil)
}

func TestMirrorClientFailover(t *testing.T) {
	_, servers, addrs := constellation(t, 3)
	st := newStore(t, "s1")
	st.Engine.Put("u", xpath.MustParse("/user[@id='u']/presence"), xmltree.MustParse(`<presence/>`))
	if err := callAt(t, addrs[0], wire.TypeRegister, &wire.RegisterRequest{
		Store: "s1", Address: st.Addr(), Path: "/user[@id='u']/presence",
	}); err != nil {
		t.Fatal(err)
	}

	mc, err := federation.DialMirrors(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	req := &wire.ResolveRequest{
		Path:    "/user[@id='u']/presence",
		Context: policy.Context{Requester: "u"},
		Verb:    token.VerbFetch,
	}
	if _, err := mc.Resolve(context.Background(), req); err != nil {
		t.Fatalf("initial resolve: %v", err)
	}

	// Kill the first two mirrors; the client fails over to the third.
	servers[0].Close()
	servers[1].Close()

	if _, err := mc.Resolve(context.Background(), req); err != nil {
		t.Fatalf("failover resolve: %v", err)
	}
	// Application-level errors do not trigger failover.
	_, err = mc.Resolve(context.Background(), &wire.ResolveRequest{
		Path:    "/user[@id='u']/wallet",
		Context: policy.Context{Requester: "eve"},
	})
	if err == nil || !strings.Contains(err.Error(), "denied") {
		t.Fatalf("expected denial, got %v", err)
	}
}

func TestAllMirrorsDown(t *testing.T) {
	if _, err := federation.DialMirrors([]string{"127.0.0.1:1", "127.0.0.1:2"}); !errors.Is(err, federation.ErrAllMirrorsDown) {
		t.Fatalf("err = %v", err)
	}
	if _, err := federation.DialMirrors(nil); err == nil {
		t.Fatal("empty address list accepted")
	}
}

// KeepPeer anti-entropy: a peer that dies and restarts empty is re-peered
// and receives the surviving mirror's full meta-data snapshot, without any
// store re-registering.
func TestKeepPeerResyncsRestartedPeer(t *testing.T) {
	mdmA := newMDM(t)
	mirrorA := federation.NewMirror(mdmA)
	srvA, err := mirrorA.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mirrorA.Close(); srvA.Close() })

	mdmB := newMDM(t)
	mirrorB := federation.NewMirror(mdmB)
	srvB, err := mirrorB.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrB := srvB.Addr()

	mirrorA.KeepPeer(addrB, 25*time.Millisecond)

	// Coverage registered at A replicates to B once the peering is up.
	if err := callAt(t, srvA.Addr(), wire.TypeRegister, &wire.RegisterRequest{
		Store: "s1", Address: "127.0.0.1:7101", Path: "/user[@id='u']/presence",
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "initial replication to B", func() bool {
		return mdmB.Registry.StoreCount("s1") == 1
	})

	// B dies and restarts empty on the same address.
	mirrorB.Close()
	srvB.Close()
	mdmB2 := newMDM(t)
	mirrorB2 := federation.NewMirror(mdmB2)
	var srvB2 *wire.Server
	waitFor(t, "restart B's listener", func() bool {
		s, err := mirrorB2.Serve(addrB)
		if err != nil {
			return false
		}
		srvB2 = s
		return true
	})
	t.Cleanup(func() { mirrorB2.Close(); srvB2.Close() })

	// KeepPeer notices the dead link, re-peers, and replays A's snapshot:
	// B2 recovers the registration although no store re-registered.
	waitFor(t, "anti-entropy resync of restarted B", func() bool {
		return mdmB2.Registry.StoreCount("s1") == 1
	})
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(15 * time.Millisecond)
	}
}

// A peer that holds TCP open and never answers costs a mutation its
// budget, not the connection: the mirror replies (best effort — the mute
// peer missed the update) in about that long, and the next frame on the
// same client connection is served. Before the dispatcher the fan-out ran
// under context.Background and the handler, and with it every later frame
// on the connection, hung for good.
func TestMirrorMutePeerCostsOnlyTheBudget(t *testing.T) {
	mdm := newMDM(t)
	mirror := federation.NewMirror(mdm)
	srv, err := mirror.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); mirror.Close() })
	mute, err := wire.Serve("127.0.0.1:0", wire.HandlerFunc(func(c *wire.ServerConn, m *wire.Message) {
		if m.Type == "peer-hello" {
			_ = c.Reply(m, wire.Empty{})
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mute.Close() })
	if err := mirror.AddPeer(context.Background(), mute.Addr()); err != nil {
		t.Fatal(err)
	}

	// Raw frames: the client's own timeout must not be what ends the wait.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	for _, m := range []*wire.Message{
		{Type: wire.TypeRegister, ID: 1, BudgetMillis: 200, Payload: wire.Marshal(wire.RegisterRequest{
			Store: "s1", Address: "127.0.0.1:7101", Path: "/user[@id='u']/presence",
		})},
		{Type: wire.TypeStats, ID: 2},
	} {
		if err := wire.WriteFrame(conn, m); err != nil {
			t.Fatal(err)
		}
	}
	ack, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatalf("the register behind a mute peer was never answered: %v", err)
	}
	if took := time.Since(start); ack.ID != 1 || ack.Error != "" || took < 150*time.Millisecond || took > 2*time.Second {
		t.Fatalf("register: reply %+v after %s, want the ack after about the 200 ms budget", ack, took)
	}
	if next, err := wire.ReadFrame(conn); err != nil || next.ID != 2 || next.Error != "" {
		t.Fatalf("the frame after it: %+v, %v", next, err)
	}
	if mdm.Registry.StoreCount("s1") != 1 {
		t.Fatal("the registration was acknowledged but not applied locally")
	}
}

// A mutation the local server refuses — here shed by admission — reaches
// no peer: mirrors replicate what they applied. Before the dispatcher the
// fan-out came first, so the peers held a rule the mirror that was asked
// had refused.
func TestMirrorRefusedMutationReachesNoPeer(t *testing.T) {
	mdmA := core.New(core.Config{
		Schema:   schema.GUP(),
		Signer:   token.NewSigner(key),
		GrantTTL: time.Minute,
		Overload: overload.Config{MaxConcurrency: 1, QueueDepth: 1, QueueWait: 30 * time.Millisecond},
	})
	t.Cleanup(mdmA.Close)
	mdmB := newMDM(t)
	mirrors := []*federation.Mirror{federation.NewMirror(mdmA), federation.NewMirror(mdmB)}
	var addrs []string
	for _, m := range mirrors {
		srv, err := m.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		m := m
		t.Cleanup(func() { srv.Close(); m.Close() })
		addrs = append(addrs, srv.Addr())
	}
	if err := federation.Join(mirrors, addrs); err != nil {
		t.Fatal(err)
	}
	rule := &wire.PutRuleRequest{Owner: "u", Rule: wire.RulePayload{ID: "r1", Path: "/user[@id='u']/presence", Effect: "permit"}}

	held, err := mdmA.Admission().Acquire(context.Background(), overload.ClassHigh)
	if err != nil {
		t.Fatal(err)
	}
	err = callAt(t, addrs[0], wire.TypePutRule, rule)
	held()
	var ov *wire.OverloadedError
	if !errors.As(err, &ov) {
		t.Fatalf("put-rule on a saturated mirror: got %v, want *wire.OverloadedError", err)
	}
	if got := len(mdmB.ShieldSnapshot()); got != 0 {
		t.Fatalf("the peer holds %d rules after a put-rule its mirror refused", got)
	}

	// Accepted, it converges as before.
	if err := callAt(t, addrs[0], wire.TypePutRule, rule); err != nil {
		t.Fatal(err)
	}
	if got := len(mdmB.ShieldSnapshot()); got != 1 {
		t.Fatalf("the peer holds %d rules after an accepted put-rule, want 1", got)
	}
}
