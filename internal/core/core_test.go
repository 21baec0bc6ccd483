package core_test

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gupster/internal/core"
	"gupster/internal/coverage"
	"gupster/internal/policy"
	"gupster/internal/schema"
	"gupster/internal/store"
	"gupster/internal/syncml"
	"gupster/internal/token"
	"gupster/internal/wire"
	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

var key = []byte("core-integration-test-key")

// rig is a complete in-process converged network: an MDM and any number of
// GUP-enabled data stores, all over real TCP.
type rig struct {
	t      *testing.T
	mdm    *core.MDM
	server *core.Server
	stores map[string]*store.Server
	signer *token.Signer
}

func newRig(t *testing.T, cacheEntries int) *rig {
	t.Helper()
	signer := token.NewSigner(key)
	m := core.New(core.Config{
		Schema:       schema.GUP(),
		Signer:       signer,
		GrantTTL:     time.Minute,
		CacheEntries: cacheEntries,
	})
	srv := core.NewServer(m)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("MDM start: %v", err)
	}
	r := &rig{t: t, mdm: m, server: srv, stores: map[string]*store.Server{}, signer: signer}
	t.Cleanup(func() {
		m.Close()
		srv.Close()
		for _, s := range r.stores {
			s.Close()
		}
	})
	return r
}

// addStore creates a data store wired to notify the MDM on change.
func (r *rig) addStore(id string) *store.Server {
	r.t.Helper()
	eng := store.NewEngine(id)
	eng.Schema = schema.GUP()
	srv := store.NewServer(eng, r.signer)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		r.t.Fatalf("store %s start: %v", id, err)
	}
	eng.OnChange(func(user string, path xpath.Path, xml string, version uint64) {
		r.mdm.HandleChanged(&wire.ChangedNotice{
			Store: id, User: user, Path: path.String(), XML: xml, Version: version,
		})
	})
	r.stores[id] = srv
	return srv
}

// register announces coverage for a store.
func (r *rig) register(id, path string) {
	r.t.Helper()
	if err := r.mdm.Register(coverage.StoreID(id), r.stores[id].Addr(), xpath.MustParse(path)); err != nil {
		r.t.Fatalf("register %s %s: %v", id, path, err)
	}
}

// seed writes a component directly into a store engine.
func (r *rig) seed(id, user, path, xml string) {
	r.t.Helper()
	if _, err := r.stores[id].Engine.Put(user, xpath.MustParse(path), xmltree.MustParse(xml)); err != nil {
		r.t.Fatalf("seed %s: %v", id, err)
	}
}

func (r *rig) client(identity, role string) *core.Client {
	r.t.Helper()
	c, err := core.DialMDM(r.server.Addr(), identity, role)
	if err != nil {
		r.t.Fatalf("DialMDM: %v", err)
	}
	r.t.Cleanup(func() { c.Close() })
	return c
}

func TestEndToEndReferralFetch(t *testing.T) {
	r := newRig(t, 0)
	r.addStore("gup.spcs.com")
	r.register("gup.spcs.com", "/user[@id='arnaud']/presence")
	r.seed("gup.spcs.com", "arnaud", "/user[@id='arnaud']/presence", `<presence status="available"/>`)

	cli := r.client("arnaud", "self")
	doc, err := cli.Get(context.Background(), "/user[@id='arnaud']/presence")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if s, _ := doc.Child("presence").Attr("status"); s != "available" {
		t.Errorf("got %s", doc)
	}
}

func TestReferralChoiceAcrossRedundantStores(t *testing.T) {
	r := newRig(t, 0)
	r.addStore("gup.yahoo.com")
	r.addStore("gup.spcs.com")
	book := `<address-book><item name="rick"><phone>1</phone></item></address-book>`
	for _, id := range []string{"gup.yahoo.com", "gup.spcs.com"} {
		r.register(id, "/user[@id='arnaud']/address-book")
		r.seed(id, "arnaud", "/user[@id='arnaud']/address-book", book)
	}
	cli := r.client("arnaud", "self")
	resp, err := cli.Resolve(context.Background(), &wire.ResolveRequest{
		Path:    "/user[@id='arnaud']/address-book",
		Context: policy.Context{Requester: "arnaud"},
		Verb:    token.VerbFetch,
	})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if len(resp.Alternatives) != 2 {
		t.Fatalf("alternatives = %d, want 2 (choice across redundant stores)", len(resp.Alternatives))
	}
	for _, alt := range resp.Alternatives {
		if len(alt.Referrals) != 1 {
			t.Errorf("redundant store alternative should be single-referral: %+v", alt)
		}
	}
	doc, err := cli.FollowReferrals(context.Background(), resp)
	if err != nil || doc.Child("address-book") == nil {
		t.Errorf("follow: %v / %v", doc, err)
	}
}

// The paper's Figure 9: the address book split across Yahoo (personal) and
// Lucent (corporate); a whole-book request merges both halves.
func TestSplitAddressBookMerge(t *testing.T) {
	r := newRig(t, 0)
	r.addStore("gup.yahoo.com")
	r.addStore("gup.lucent.com")
	r.register("gup.yahoo.com", "/user[@id='arnaud']/address-book/item[@type='personal']")
	r.register("gup.lucent.com", "/user[@id='arnaud']/address-book/item[@type='corporate']")
	r.seed("gup.yahoo.com", "arnaud", "/user[@id='arnaud']/address-book",
		`<address-book><item name="mom" type="personal"><phone>1</phone></item></address-book>`)
	r.seed("gup.lucent.com", "arnaud", "/user[@id='arnaud']/address-book",
		`<address-book><item name="rick" type="corporate"><phone>2</phone></item></address-book>`)

	cli := r.client("arnaud", "self")
	doc, err := cli.Get(context.Background(), "/user[@id='arnaud']/address-book")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	items := doc.Child("address-book").ChildrenNamed("item")
	if len(items) != 2 {
		t.Fatalf("merged items = %d\n%s", len(items), doc.Indent())
	}
}

func TestChainingAndRecruitingReturnSameData(t *testing.T) {
	r := newRig(t, 0)
	r.addStore("gup.a.com")
	r.addStore("gup.b.com")
	r.register("gup.a.com", "/user[@id='u']/address-book/item[@type='personal']")
	r.register("gup.b.com", "/user[@id='u']/address-book/item[@type='corporate']")
	r.seed("gup.a.com", "u", "/user[@id='u']/address-book",
		`<address-book><item name="mom" type="personal"><phone>1</phone></item></address-book>`)
	r.seed("gup.b.com", "u", "/user[@id='u']/address-book",
		`<address-book><item name="boss" type="corporate"><phone>2</phone></item></address-book>`)

	cli := r.client("u", "self")
	want, err := cli.Get(context.Background(), "/user[@id='u']/address-book")
	if err != nil {
		t.Fatalf("referral get: %v", err)
	}
	for _, pattern := range []wire.QueryPattern{wire.PatternChaining, wire.PatternRecruiting} {
		got, err := cli.GetVia(context.Background(), "/user[@id='u']/address-book", pattern)
		if err != nil {
			t.Fatalf("%s: %v", pattern, err)
		}
		wantNames := itemNames(want)
		gotNames := itemNames(got)
		if len(wantNames) != len(gotNames) {
			t.Errorf("%s: items %v, want %v", pattern, gotNames, wantNames)
		}
	}
}

func itemNames(doc *xmltree.Node) map[string]bool {
	out := map[string]bool{}
	if doc == nil {
		return out
	}
	doc.Walk(func(n *xmltree.Node) bool {
		if n.Name == "item" {
			v, _ := n.Attr("name")
			out[v] = true
		}
		return true
	})
	return out
}

func TestPrivacyShieldEnforced(t *testing.T) {
	r := newRig(t, 0)
	r.addStore("s1")
	r.register("s1", "/user[@id='alice']/presence")
	r.register("s1", "/user[@id='alice']/wallet")
	r.seed("s1", "alice", "/user[@id='alice']/presence", `<presence status="busy"/>`)
	r.seed("s1", "alice", "/user[@id='alice']/wallet", `<wallet><card id="visa"><number>4111</number></card></wallet>`)

	owner := r.client("alice", "self")
	if err := owner.PutRule(context.Background(), "alice", policy.Rule{
		ID:     "family-presence",
		Path:   xpath.MustParse("/user[@id='alice']/presence"),
		Cond:   policy.RoleIs("family"),
		Effect: policy.Permit,
	}); err != nil {
		t.Fatalf("PutRule: %v", err)
	}

	family := r.client("mom", "family")
	if _, err := family.Get(context.Background(), "/user[@id='alice']/presence"); err != nil {
		t.Errorf("family presence: %v", err)
	}
	if _, err := family.Get(context.Background(), "/user[@id='alice']/wallet"); err == nil {
		t.Error("family read the wallet")
	} else if !strings.Contains(err.Error(), "denied") {
		t.Errorf("wrong error: %v", err)
	}
	stranger := r.client("eve", "third-party")
	if _, err := stranger.Get(context.Background(), "/user[@id='alice']/presence"); err == nil {
		t.Error("stranger read presence")
	}
	// The owner always can.
	if _, err := owner.Get(context.Background(), "/user[@id='alice']/wallet"); err != nil {
		t.Errorf("owner wallet: %v", err)
	}
	// Rule deletion restores deny.
	if err := owner.DeleteRule(context.Background(), "alice", "family-presence"); err != nil {
		t.Fatalf("DeleteRule: %v", err)
	}
	if _, err := family.Get(context.Background(), "/user[@id='alice']/presence"); err == nil {
		t.Error("rule deletion did not take effect")
	}
}

func TestSpuriousQueryFiltered(t *testing.T) {
	r := newRig(t, 0)
	cli := r.client("u", "self")
	_, err := cli.Get(context.Background(), "/user[@id='u']/shoe-size")
	if err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("spurious query: %v", err)
	}
	if _, err := cli.Get(context.Background(), "not-a-path"); err == nil {
		t.Error("garbage path accepted")
	}
	stats, _ := cli.Stats(context.Background())
	if stats.Spurious != 2 {
		t.Errorf("spurious counter = %d", stats.Spurious)
	}
}

func TestNoOwnerRejected(t *testing.T) {
	r := newRig(t, 0)
	cli := r.client("u", "self")
	_, err := cli.Get(context.Background(), "/user/presence")
	if err == nil || !strings.Contains(err.Error(), "owner") {
		t.Errorf("ownerless request: %v", err)
	}
}

func TestNoCoverage(t *testing.T) {
	r := newRig(t, 0)
	cli := r.client("u", "self")
	_, err := cli.Get(context.Background(), "/user[@id='u']/presence")
	if err == nil || !strings.Contains(err.Error(), "covers") {
		t.Errorf("uncovered request: %v", err)
	}
}

func TestUpdateFansOutToAllReplicas(t *testing.T) {
	r := newRig(t, 0)
	r.addStore("s1")
	r.addStore("s2")
	r.register("s1", "/user[@id='u']/presence")
	r.register("s2", "/user[@id='u']/presence")

	cli := r.client("u", "self")
	n, err := cli.Update(context.Background(), "/user[@id='u']/presence", xmltree.MustParse(`<presence status="dnd"/>`))
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if n != 2 {
		t.Errorf("written to %d stores, want 2", n)
	}
	for _, id := range []string{"s1", "s2"} {
		comp, _, err := r.stores[id].Engine.GetComponent("u", xpath.MustParse("/user[@id='u']/presence"))
		if err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		if s, _ := comp.Attr("status"); s != "dnd" {
			t.Errorf("%s not updated: %s", id, comp)
		}
	}
}

func TestCachingOnChaining(t *testing.T) {
	r := newRig(t, 64)
	r.addStore("s1")
	r.register("s1", "/user[@id='u']/calendar")
	r.seed("s1", "u", "/user[@id='u']/calendar", `<calendar><event id="e1"><title>standup</title></event></calendar>`)

	cli := r.client("u", "self")
	for i := 0; i < 3; i++ {
		if _, err := cli.GetVia(context.Background(), "/user[@id='u']/calendar", wire.PatternChaining); err != nil {
			t.Fatalf("chaining get %d: %v", i, err)
		}
	}
	stats, _ := cli.Stats(context.Background())
	if stats.CacheHits != 2 || stats.CacheMisses != 1 {
		t.Errorf("cache hits=%d misses=%d", stats.CacheHits, stats.CacheMisses)
	}
	// A write through the store invalidates the cache.
	r.seed("s1", "u", "/user[@id='u']/calendar", `<calendar><event id="e2"><title>retro</title></event></calendar>`)
	doc, err := cli.GetVia(context.Background(), "/user[@id='u']/calendar", wire.PatternChaining)
	if err != nil {
		t.Fatalf("post-invalidation get: %v", err)
	}
	if !itemHasEvent(doc, "e2") {
		t.Errorf("stale cache served: %s", doc)
	}
	stats, _ = cli.Stats(context.Background())
	if stats.CacheMisses != 2 {
		t.Errorf("invalidation did not register: misses=%d", stats.CacheMisses)
	}
}

func itemHasEvent(doc *xmltree.Node, id string) bool {
	found := false
	doc.Walk(func(n *xmltree.Node) bool {
		if n.Name == "event" {
			if v, _ := n.Attr("id"); v == id {
				found = true
			}
		}
		return true
	})
	return found
}

func TestSubscriptionPush(t *testing.T) {
	r := newRig(t, 0)
	r.addStore("s1")
	r.register("s1", "/user[@id='alice']/presence")

	var got atomic.Int32
	notif := make(chan wire.Notification, 8)
	cli := r.client("alice", "self")
	subID, err := cli.Subscribe(context.Background(), "/user[@id='alice']/presence", func(n wire.Notification) {
		got.Add(1)
		notif <- n
	})
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if subID == 0 {
		t.Fatal("sub id 0")
	}

	r.seed("s1", "alice", "/user[@id='alice']/presence", `<presence status="online"/>`)
	select {
	case n := <-notif:
		if !strings.Contains(n.XML, "online") {
			t.Errorf("notification XML = %q", n.XML)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("notification never arrived")
	}

	// Unrelated component changes do not notify.
	r.register("s1", "/user[@id='alice']/calendar")
	r.seed("s1", "alice", "/user[@id='alice']/calendar", `<calendar><event id="e"><title>x</title></event></calendar>`)
	time.Sleep(100 * time.Millisecond)
	if got.Load() != 1 {
		t.Errorf("notifications = %d, want 1", got.Load())
	}

	// Unsubscribe stops delivery.
	if err := cli.Unsubscribe(context.Background(), subID); err != nil {
		t.Fatalf("Unsubscribe: %v", err)
	}
	r.seed("s1", "alice", "/user[@id='alice']/presence", `<presence status="offline"/>`)
	time.Sleep(100 * time.Millisecond)
	if got.Load() != 1 {
		t.Errorf("post-unsubscribe notifications = %d", got.Load())
	}
}

func TestSubscriptionDeniedByShield(t *testing.T) {
	r := newRig(t, 0)
	r.addStore("s1")
	r.register("s1", "/user[@id='alice']/presence")
	stranger := r.client("eve", "third-party")
	if _, err := stranger.Subscribe(context.Background(), "/user[@id='alice']/presence", func(wire.Notification) {}); err == nil {
		t.Error("stranger subscribed")
	}
}

func TestSyncThroughGUPster(t *testing.T) {
	r := newRig(t, 0)
	r.addStore("s1")
	r.register("s1", "/user[@id='u']/address-book")
	r.seed("s1", "u", "/user[@id='u']/address-book",
		`<address-book><item name="rick"><phone>1</phone></item></address-book>`)

	cli := r.client("u", "self")
	dev := syncml.NewDevice(xmltree.DefaultKeys)
	st, err := cli.SyncDeviceComponent(context.Background(), "/user[@id='u']/address-book", dev, syncml.ServerWins)
	if err != nil {
		t.Fatalf("first sync: %v", err)
	}
	if !st.Slow || dev.Local == nil {
		t.Fatalf("first sync: %+v", st)
	}
	dev.Edit(func(local *xmltree.Node) *xmltree.Node {
		local.Add(xmltree.New("item").SetAttr("name", "dan").Add(xmltree.NewText("phone", "2")))
		return local
	})
	st, err = cli.SyncDeviceComponent(context.Background(), "/user[@id='u']/address-book", dev, syncml.ServerWins)
	if err != nil {
		t.Fatalf("second sync: %v", err)
	}
	if st.Slow || st.OpsSent != 1 {
		t.Errorf("second sync: %+v", st)
	}
	comp, _, _ := r.stores["s1"].Engine.GetComponent("u", xpath.MustParse("/user[@id='u']/address-book"))
	if len(comp.ChildrenNamed("item")) != 2 {
		t.Errorf("server state: %s", comp)
	}
}

func TestUnregisterAndWireRegister(t *testing.T) {
	r := newRig(t, 0)
	s := r.addStore("s1")

	// Register over the wire, as a store daemon would.
	mc, err := wire.Dial(r.server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	err = mc.Call(context.Background(), wire.TypeRegister, &wire.RegisterRequest{
		Store: "s1", Address: s.Addr(), Path: "/user[@id='u']/presence",
	}, nil)
	if err != nil {
		t.Fatalf("wire register: %v", err)
	}
	r.seed("s1", "u", "/user[@id='u']/presence", `<presence status="on"/>`)

	cli := r.client("u", "self")
	if _, err := cli.Get(context.Background(), "/user[@id='u']/presence"); err != nil {
		t.Fatalf("Get after wire register: %v", err)
	}
	// Unregister over the wire.
	err = mc.Call(context.Background(), wire.TypeUnregister, &wire.UnregisterRequest{
		Store: "s1", Path: "/user[@id='u']/presence",
	}, nil)
	if err != nil {
		t.Fatalf("wire unregister: %v", err)
	}
	if _, err := cli.Get(context.Background(), "/user[@id='u']/presence"); err == nil {
		t.Error("Get succeeded after unregister")
	}
	// Unregistering twice errors.
	err = mc.Call(context.Background(), wire.TypeUnregister, &wire.UnregisterRequest{
		Store: "s1", Path: "/user[@id='u']/presence",
	}, nil)
	if err == nil {
		t.Error("double unregister accepted")
	}
}

func TestExpiredReferralRejectedAtStore(t *testing.T) {
	// An MDM with a tiny TTL issues grants that die before use.
	signer := token.NewSigner(key)
	m := core.New(core.Config{Schema: schema.GUP(), Signer: signer, GrantTTL: time.Nanosecond})
	srv := core.NewServer(m)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	eng := store.NewEngine("s1")
	// The store checks freshness with a skew-less verifier.
	strict := token.NewSigner(key)
	strict.MaxSkew = 0
	ssrv := store.NewServer(eng, strict)
	if err := ssrv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer ssrv.Close()
	m.Register("s1", ssrv.Addr(), xpath.MustParse("/user[@id='u']/presence"))
	eng.Put("u", xpath.MustParse("/user[@id='u']/presence"), xmltree.MustParse(`<presence/>`))

	cli, err := core.DialMDM(srv.Addr(), "u", "self")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	resp, err := cli.Resolve(context.Background(), &wire.ResolveRequest{
		Path:    "/user[@id='u']/presence",
		Context: policy.Context{Requester: "u"},
		Verb:    token.VerbFetch,
	})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	time.Sleep(10 * time.Millisecond)
	if _, err := cli.FollowReferrals(context.Background(), resp); err == nil {
		t.Error("expired referral accepted by store")
	}
}

func TestMDMErrors(t *testing.T) {
	r := newRig(t, 0)
	if !errors.Is(core.ErrDenied, core.ErrDenied) {
		t.Fatal("sanity")
	}
	// Unknown pattern.
	cli := r.client("u", "self")
	r.addStore("s1")
	r.register("s1", "/user[@id='u']/presence")
	_, err := cli.Resolve(context.Background(), &wire.ResolveRequest{
		Path:    "/user[@id='u']/presence",
		Context: policy.Context{Requester: "u"},
		Pattern: "smoke-signals",
	})
	if err == nil {
		t.Error("unknown pattern accepted")
	}
}

// One-way frames (ID 0) get no answer, whatever is wrong with them: the
// peer's read loop would deliver one as a notification of the request's
// type. The only frame that comes back is the call's reply.
func TestOneWayFramesGetNoAnswer(t *testing.T) {
	r := newRig(t, 0)
	wc, err := wire.Dial(r.server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	wc.OnNotify(func(msgType string, _ wire.Payload) {
		t.Errorf("the MDM answered a one-way frame: %q", msgType)
	})
	ctx := context.Background()
	for typ, payload := range map[string]any{
		wire.TypeResolve:     "not a resolve request",
		wire.TypeTraceReport: "not a trace report",
		"no-such-type":       wire.Empty{},
	} {
		if err := wc.Send(ctx, typ, payload); err != nil {
			t.Fatal(err)
		}
	}
	// Frames are served in order: the reply means the three are done with.
	var stats wire.StatsResponse
	if err := wc.Call(ctx, wire.TypeStats, nil, &stats); err != nil {
		t.Fatal(err)
	}
}
