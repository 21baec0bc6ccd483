package federation_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"gupster/internal/core"
	"gupster/internal/coverage"
	"gupster/internal/federation"
	"gupster/internal/overload"
	"gupster/internal/policy"
	"gupster/internal/schema"
	"gupster/internal/store"
	"gupster/internal/token"
	"gupster/internal/wire"
	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

var key = []byte("federation-test-key")

func newMDM(t *testing.T) *core.MDM {
	t.Helper()
	m := core.New(core.Config{
		Schema:   schema.GUP(),
		Signer:   token.NewSigner(key),
		GrantTTL: time.Minute,
	})
	t.Cleanup(m.Close)
	return m
}

func newStore(t *testing.T, id string) *store.Server {
	t.Helper()
	eng := store.NewEngine(id)
	srv := store.NewServer(eng, token.NewSigner(key))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestWhitePages(t *testing.T) {
	wp := federation.NewWhitePages()
	wp.Set("alice", "10.0.0.1:99", false)
	wp.Set("bob", "10.0.0.2:99", true) // unlisted

	if a, err := wp.Lookup("alice"); err != nil || a != "10.0.0.1:99" {
		t.Errorf("alice: %q, %v", a, err)
	}
	if _, err := wp.Lookup("bob"); !errors.Is(err, federation.ErrUnlisted) {
		t.Errorf("bob: %v", err)
	}
	if _, err := wp.Lookup("ghost"); !errors.Is(err, federation.ErrUnknownUser) {
		t.Errorf("ghost: %v", err)
	}
	// Re-listing flips the flag.
	wp.Set("bob", "10.0.0.2:99", false)
	if _, err := wp.Lookup("bob"); err != nil {
		t.Errorf("relisted bob: %v", err)
	}
}

func TestWhitePagesOverWire(t *testing.T) {
	wp := federation.NewWhitePages()
	wp.Set("alice", "addr-a", false)
	wp.Set("carol", "addr-c", true)
	srv, err := wp.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	loc, err := federation.NewLocator(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer loc.Close()

	if a, err := loc.WhoHas(context.Background(), "alice"); err != nil || a != "addr-a" {
		t.Errorf("alice: %q, %v", a, err)
	}
	if _, err := loc.WhoHas(context.Background(), "carol"); !errors.Is(err, federation.ErrUnlisted) {
		t.Errorf("carol: %v", err)
	}
	if _, err := loc.WhoHas(context.Background(), "ghost"); err == nil {
		t.Error("ghost resolved")
	}
}

// User-level distributed MDM (§5.1.2): alice and bob use different MDMs;
// the locator finds each user's MDM through the white pages and resolves
// there.
func TestUserLevelDistributedMDM(t *testing.T) {
	mdmA := newMDM(t)
	srvA := core.NewServer(mdmA)
	if err := srvA.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()
	mdmB := newMDM(t)
	srvB := core.NewServer(mdmB)
	if err := srvB.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()

	stA := newStore(t, "store-a")
	stB := newStore(t, "store-b")
	stA.Engine.Put("alice", xpath.MustParse("/user[@id='alice']/presence"), xmltree.MustParse(`<presence status="A"/>`))
	stB.Engine.Put("bob", xpath.MustParse("/user[@id='bob']/presence"), xmltree.MustParse(`<presence status="B"/>`))
	mdmA.Register(coverage.StoreID("store-a"), stA.Addr(), xpath.MustParse("/user[@id='alice']/presence"))
	mdmB.Register(coverage.StoreID("store-b"), stB.Addr(), xpath.MustParse("/user[@id='bob']/presence"))

	wp := federation.NewWhitePages()
	wp.Set("alice", srvA.Addr(), false)
	wp.Set("bob", srvB.Addr(), false)
	wpSrv, err := wp.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer wpSrv.Close()

	loc, err := federation.NewLocator(wpSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer loc.Close()

	for _, tc := range []struct{ user, path string }{
		{"alice", "/user[@id='alice']/presence"},
		{"bob", "/user[@id='bob']/presence"},
	} {
		resp, err := loc.Resolve(context.Background(), tc.user, &wire.ResolveRequest{
			Path:    tc.path,
			Context: policy.Context{Requester: tc.user},
			Verb:    token.VerbFetch,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.user, err)
		}
		if len(resp.Alternatives) != 1 || resp.Hops != 0 {
			t.Errorf("%s: %+v", tc.user, resp)
		}
	}
	// Alice's MDM knows nothing about bob.
	if _, err := mdmA.Resolve(context.Background(), &wire.ResolveRequest{
		Path:    "/user[@id='bob']/presence",
		Context: policy.Context{Requester: "bob"},
	}); err == nil {
		t.Error("wrong MDM answered")
	}
}

// Hierarchical MDM (§5.1.2): the wireless provider is alice's primary MDM;
// wallet meta-data is delegated to the bank's MDM, which alone knows where
// the wallet lives.
func TestHierarchicalDelegation(t *testing.T) {
	// Bank MDM with the wallet coverage.
	bank := newMDM(t)
	bankNode := federation.NewNode(bank)
	defer bankNode.Close()
	bankSrv, err := bankNode.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bankSrv.Close()
	bankStore := newStore(t, "gup.bank.com")
	bankStore.Engine.Put("alice", xpath.MustParse("/user[@id='alice']/wallet"),
		xmltree.MustParse(`<wallet><card id="visa"><number>4111</number></card></wallet>`))
	bank.Register("gup.bank.com", bankStore.Addr(), xpath.MustParse("/user[@id='alice']/wallet"))

	// Primary (WSP) MDM with presence coverage, delegating the wallet.
	wsp := newMDM(t)
	wspNode := federation.NewNode(wsp)
	defer wspNode.Close()
	wspSrv, err := wspNode.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer wspSrv.Close()
	wspStore := newStore(t, "gup.wsp.com")
	wspStore.Engine.Put("alice", xpath.MustParse("/user[@id='alice']/presence"), xmltree.MustParse(`<presence status="on"/>`))
	wsp.Register("gup.wsp.com", wspStore.Addr(), xpath.MustParse("/user[@id='alice']/presence"))
	wspNode.Delegate(xpath.MustParse("/user[@id='alice']/wallet"), bankSrv.Addr())

	// Local resolve stays local (0 hops).
	resp, err := wspNode.Resolve(context.Background(), &wire.ResolveRequest{
		Path:    "/user[@id='alice']/presence",
		Context: policy.Context{Requester: "alice"},
		Verb:    token.VerbFetch,
	})
	if err != nil || resp.Hops != 0 {
		t.Fatalf("local: %+v, %v", resp, err)
	}
	// Wallet resolve forwards to the bank (1 hop) and comes back with the
	// bank store's referral.
	resp, err = wspNode.Resolve(context.Background(), &wire.ResolveRequest{
		Path:    "/user[@id='alice']/wallet",
		Context: policy.Context{Requester: "alice"},
		Verb:    token.VerbFetch,
	})
	if err != nil {
		t.Fatalf("delegated: %v", err)
	}
	if resp.Hops != 1 {
		t.Errorf("hops = %d, want 1", resp.Hops)
	}
	if len(resp.Alternatives) != 1 || resp.Alternatives[0].Referrals[0].Query.Store != "gup.bank.com" {
		t.Errorf("referral = %+v", resp.Alternatives)
	}
	// A request deeper inside the delegated subtree also forwards.
	resp, err = wspNode.Resolve(context.Background(), &wire.ResolveRequest{
		Path:    "/user[@id='alice']/wallet/card[@id='visa']",
		Context: policy.Context{Requester: "alice"},
		Verb:    token.VerbFetch,
	})
	if err != nil || resp.Hops != 1 {
		t.Errorf("deep delegated: %+v, %v", resp, err)
	}
	// The WSP's own MDM holds no wallet coverage — "knows nothing about it".
	if _, err := wsp.Resolve(context.Background(), &wire.ResolveRequest{
		Path:    "/user[@id='alice']/wallet",
		Context: policy.Context{Requester: "alice"},
	}); err == nil {
		t.Error("primary MDM leaked delegated coverage")
	}
}

// Two-level chain: device MDM → employer MDM → bank MDM.
func TestTwoLevelDelegationChain(t *testing.T) {
	bank := federation.NewNode(newMDM(t))
	defer bank.Close()
	bankSrv, _ := bank.Serve("127.0.0.1:0")
	defer bankSrv.Close()
	st := newStore(t, "deep-store")
	st.Engine.Put("u", xpath.MustParse("/user[@id='u']/wallet"), xmltree.MustParse(`<wallet/>`))
	bank.Local.Register("deep-store", st.Addr(), xpath.MustParse("/user[@id='u']/wallet"))

	mid := federation.NewNode(newMDM(t))
	defer mid.Close()
	mid.Delegate(xpath.MustParse("/user[@id='u']/wallet"), bankSrv.Addr())
	midSrv, _ := mid.Serve("127.0.0.1:0")
	defer midSrv.Close()

	top := federation.NewNode(newMDM(t))
	defer top.Close()
	top.Delegate(xpath.MustParse("/user[@id='u']/wallet"), midSrv.Addr())

	resp, err := top.Resolve(context.Background(), &wire.ResolveRequest{
		Path:    "/user[@id='u']/wallet",
		Context: policy.Context{Requester: "u"},
		Verb:    token.VerbFetch,
	})
	if err != nil {
		t.Fatalf("chain: %v", err)
	}
	if resp.Hops != 2 {
		t.Errorf("hops = %d, want 2", resp.Hops)
	}
}

func TestDelegateUnreachable(t *testing.T) {
	n := federation.NewNode(newMDM(t))
	defer n.Close()
	n.Delegate(xpath.MustParse("/user[@id='u']/wallet"), "127.0.0.1:1")
	_, err := n.Resolve(context.Background(), &wire.ResolveRequest{
		Path:    "/user[@id='u']/wallet",
		Context: policy.Context{Requester: "u"},
	})
	if err == nil {
		t.Error("unreachable delegate ignored")
	}
	if got := len(n.Delegations()); got != 1 {
		t.Errorf("delegations = %d", got)
	}
}

func TestNodeServeRejectsGarbagePath(t *testing.T) {
	n := federation.NewNode(newMDM(t))
	defer n.Close()
	if _, err := n.Resolve(context.Background(), &wire.ResolveRequest{Path: "///"}); err == nil {
		t.Error("garbage path accepted")
	}
}

// A delegate that restarts must not poison its subtree: the parent's
// connection to it died with the old process, and the next resolve dials
// the new one.
func TestDelegateRestartIsRedialed(t *testing.T) {
	serveBank := func(addr string) *wire.Server {
		t.Helper()
		bank := federation.NewNode(newMDM(t))
		t.Cleanup(bank.Close)
		st := newStore(t, "bank-store")
		bank.Local.Register("bank-store", st.Addr(), xpath.MustParse("/user[@id='u']/wallet"))
		srv, err := bank.Serve(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	bankSrv := serveBank("127.0.0.1:0")
	addr := bankSrv.Addr()

	top := federation.NewNode(newMDM(t))
	defer top.Close()
	top.Delegate(xpath.MustParse("/user[@id='u']/wallet"), addr)
	req := &wire.ResolveRequest{
		Path:    "/user[@id='u']/wallet",
		Context: policy.Context{Requester: "u"},
		Verb:    token.VerbFetch,
	}
	if _, err := top.Resolve(context.Background(), req); err != nil {
		t.Fatalf("before restart: %v", err)
	}

	bankSrv.Close()
	serveBank(addr)
	// The parent notices the old connection's EOF within moments of the
	// restart; until this change it never did.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := top.Resolve(context.Background(), req)
		if err == nil {
			if resp.Hops != 1 {
				t.Fatalf("hops = %d, want 1", resp.Hops)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("delegate restarted on %s, parent still answers: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A forwarded resolve runs under the budget its frame carried, so a
// delegate that never answers cannot strand the parent's handler past the
// caller's deadline.
func TestNodeServeForwardsUnderTheFramesBudget(t *testing.T) {
	hung, err := wire.Serve("127.0.0.1:0", wire.HandlerFunc(func(*wire.ServerConn, *wire.Message) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer hung.Close()
	top := federation.NewNode(newMDM(t))
	defer top.Close()
	top.Delegate(xpath.MustParse("/user[@id='u']/wallet"), hung.Addr())
	topSrv, err := top.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	cli, err := wire.Dial(topSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	err = cli.Call(ctx, wire.TypeResolve, &wire.ResolveRequest{
		Path:    "/user[@id='u']/wallet",
		Context: policy.Context{Requester: "u"},
	}, nil)
	if err == nil {
		t.Fatal("a delegate that never answers produced an answer")
	}
	// Close waits for the handler: it returns only if the forward ended.
	closed := make(chan struct{})
	go func() { topSrv.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("handler still forwarding long after the frame's 100ms budget")
	}
}

// A federated node's resolve is a route like any other: it passes the local
// MDM's admission. Before the dispatcher, Node.Serve answered resolves
// itself and only handed the other types to the core server, so the one
// class admission exists to bound was never admitted, counted or shed.
func TestNodeServeAdmitsResolves(t *testing.T) {
	local := core.New(core.Config{
		Schema:   schema.GUP(),
		Signer:   token.NewSigner(key),
		GrantTTL: time.Minute,
		Overload: overload.Config{MaxConcurrency: 1, QueueDepth: 1, QueueWait: 50 * time.Millisecond},
	})
	t.Cleanup(local.Close)
	st := newStore(t, "s1")
	if err := local.Register("s1", st.Addr(), xpath.MustParse("/user[@id='u']/presence")); err != nil {
		t.Fatal(err)
	}
	n := federation.NewNode(local)
	defer n.Close()
	srv, err := n.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	req := &wire.ResolveRequest{
		Path:    "/user[@id='u']/presence",
		Context: policy.Context{Requester: "u"},
		Verb:    token.VerbFetch,
	}

	if err := cli.Call(context.Background(), wire.TypeResolve, req, nil); err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if got := local.Snapshot().AdmissionAdmitted; got != 1 {
		t.Fatalf("AdmissionAdmitted = %d after one resolve, want 1", got)
	}

	// The slot held and the queue full: the next resolve is shed.
	held, err := local.Admission().Acquire(context.Background(), overload.ClassHigh)
	if err != nil {
		t.Fatal(err)
	}
	defer held()
	go func() { // fills the queue until the resolve displaces it
		if release, err := local.Admission().Acquire(context.Background(), overload.ClassHigh); err == nil {
			release()
		}
	}()
	for {
		if _, queued := local.Admission().InUse(); queued == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	err = cli.Call(context.Background(), wire.TypeResolve, req, nil)
	var ov *wire.OverloadedError
	if !errors.As(err, &ov) {
		t.Fatalf("resolve on a saturated node: got %v, want *wire.OverloadedError", err)
	}
}
