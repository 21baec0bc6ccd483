package store

import (
	"context"
	"strings"
	"testing"
	"time"

	"gupster/internal/schema"
	"gupster/internal/syncml"
	"gupster/internal/token"
	"gupster/internal/wire"
	"gupster/internal/xmltree"
)

var testKey = []byte("store-server-test-key")

func startServer(t *testing.T) (*Server, *Client, *token.Signer) {
	t.Helper()
	eng := NewEngine("gup.test.com")
	eng.Schema = schema.GUP()
	signer := token.NewSigner(testKey)
	srv := NewServer(eng, signer)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := DialClient(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli, signer
}

func TestFetchUpdateOverWire(t *testing.T) {
	srv, cli, signer := startServer(t)
	p := mp("/user[@id='alice']/presence")

	upd := signer.Sign(srv.Engine.ID(), "alice", p, token.VerbUpdate, "alice", time.Minute)
	v, err := cli.Update(context.Background(), upd, xmltree.MustParse(`<presence status="available"/>`))
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if v == 0 {
		t.Error("version not advanced")
	}

	fet := signer.Sign(srv.Engine.ID(), "alice", p, token.VerbFetch, "bob", time.Minute)
	doc, gv, err := cli.Fetch(context.Background(), fet)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if gv != v {
		t.Errorf("fetch version = %d, want %d", gv, v)
	}
	if s, _ := doc.Child("presence").Attr("status"); s != "available" {
		t.Errorf("fetched: %s", doc)
	}
}

func TestFetchEmptyComponent(t *testing.T) {
	srv, cli, signer := startServer(t)
	q := signer.Sign(srv.Engine.ID(), "ghost", mp("/user[@id='ghost']/presence"), token.VerbFetch, "r", time.Minute)
	doc, _, err := cli.Fetch(context.Background(), q)
	if err != nil {
		t.Fatalf("Fetch empty: %v", err)
	}
	if doc != nil {
		t.Errorf("expected nil doc, got %s", doc)
	}
}

func TestUnsignedAndMisdirectedQueriesRejected(t *testing.T) {
	srv, cli, signer := startServer(t)
	p := mp("/user[@id='alice']/presence")

	// Forged signature.
	forged := signer.Sign(srv.Engine.ID(), "alice", p, token.VerbFetch, "eve", time.Minute)
	forged.Owner = "bob"
	if _, _, err := cli.Fetch(context.Background(), forged); err == nil || !strings.Contains(err.Error(), "signature") {
		t.Errorf("forged query: %v", err)
	}
	// Wrong store.
	other := token.NewSigner(testKey).Sign("gup.other.com", "alice", p, token.VerbFetch, "eve", time.Minute)
	if _, _, err := cli.Fetch(context.Background(), other); err == nil || !strings.Contains(err.Error(), "different store") {
		t.Errorf("misdirected query: %v", err)
	}
	// Fetch grant used for update.
	fet := signer.Sign(srv.Engine.ID(), "alice", p, token.VerbFetch, "eve", time.Minute)
	if _, err := cli.Update(context.Background(), fet, xmltree.MustParse(`<presence/>`)); err == nil || !strings.Contains(err.Error(), "verb") {
		t.Errorf("verb escalation: %v", err)
	}
	// Expired grant.
	past := signer.WithClock(func() time.Time { return time.Now().Add(-time.Hour) })
	stale := past.Sign(srv.Engine.ID(), "alice", p, token.VerbFetch, "eve", time.Second)
	if _, _, err := cli.Fetch(context.Background(), stale); err == nil || !strings.Contains(err.Error(), "expired") {
		t.Errorf("expired grant: %v", err)
	}
}

func TestUpdateSchemaEnforced(t *testing.T) {
	srv, cli, signer := startServer(t)
	p := mp("/user[@id='alice']/address-book")
	upd := signer.Sign(srv.Engine.ID(), "alice", p, token.VerbUpdate, "alice", time.Minute)
	_, err := cli.Update(context.Background(), upd, xmltree.MustParse(`<address-book><item/></address-book>`))
	if err == nil || !strings.Contains(err.Error(), "required attribute") {
		t.Errorf("schema violation accepted: %v", err)
	}
	// Malformed XML body.
	var resp wire.UpdateResponse
	raw := wire.UpdateRequest{Query: upd, XML: "<broken"}
	werr := cliCall(t, srv.Addr(), wire.TypeUpdate, raw, &resp)
	if werr == nil {
		t.Error("malformed XML accepted")
	}
}

func cliCall(t *testing.T, addr, msgType string, req, resp any) error {
	t.Helper()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	return c.Call(context.Background(), msgType, req, resp)
}

func TestSyncOverWire(t *testing.T) {
	srv, cli, signer := startServer(t)
	p := mp("/user[@id='alice']/address-book")
	srv.Engine.Put("alice", p, xmltree.MustParse(
		`<address-book><item name="rick"><phone>1</phone></item></address-book>`))

	grant := signer.Sign(srv.Engine.ID(), "alice", p, token.VerbUpdate, "alice", time.Minute)
	dev := syncml.NewDevice(xmltree.DefaultKeys)
	tr := cli.SyncTransport(grant)

	st, err := dev.Sync(context.Background(), tr, syncml.ServerWins)
	if err != nil {
		t.Fatalf("first sync: %v", err)
	}
	if !st.Slow {
		t.Error("first sync should be slow")
	}
	// Device adds an item; fast sync propagates it.
	dev.Edit(func(local *xmltree.Node) *xmltree.Node {
		local.Add(xmltree.New("item").SetAttr("name", "dan").Add(xmltree.NewText("phone", "2")))
		return local
	})
	st, err = dev.Sync(context.Background(), tr, syncml.ServerWins)
	if err != nil {
		t.Fatalf("second sync: %v", err)
	}
	if st.Slow || st.OpsSent != 1 {
		t.Errorf("stats = %+v", st)
	}
	comp, _, _ := srv.Engine.GetComponent("alice", p)
	if len(comp.ChildrenNamed("item")) != 2 {
		t.Errorf("server missed device add: %s", comp)
	}
	// A fetch-verb grant must not open a sync session.
	fet := signer.Sign(srv.Engine.ID(), "alice", p, token.VerbFetch, "alice", time.Minute)
	if _, err := cli.SyncTransport(fet).SyncStart(context.Background(), 0); err == nil {
		t.Error("sync with fetch grant accepted")
	}
}

func TestExecRecruiting(t *testing.T) {
	// Two stores each hold half of the address book; exec on the first
	// recruits the second.
	signer := token.NewSigner(testKey)

	engA := NewEngine("gup.a.com")
	srvA := NewServer(engA, signer)
	if err := srvA.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()
	engB := NewEngine("gup.b.com")
	srvB := NewServer(engB, signer)
	if err := srvB.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()

	pPersonal := mp("/user[@id='u']/address-book/item[@type='personal']")
	pCorp := mp("/user[@id='u']/address-book/item[@type='corporate']")
	engA.Put("u", pPersonal, xmltree.MustParse(`<item name="mom" type="personal"><phone>1</phone></item>`))
	engB.Put("u", pCorp, xmltree.MustParse(`<item name="boss" type="corporate"><phone>2</phone></item>`))

	primary := wire.FetchRequest{Query: signer.Sign("gup.a.com", "u", pPersonal, token.VerbFetch, "r", time.Minute)}
	sibling := wire.Referral{
		Address: srvB.Addr(),
		Query:   signer.Sign("gup.b.com", "u", pCorp, token.VerbFetch, "r", time.Minute),
	}
	cli, err := DialClient(srvA.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	xml, err := cli.Exec(context.Background(), primary, []wire.Referral{sibling})
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	merged := xmltree.MustParse(xml)
	items := merged.Child("address-book").ChildrenNamed("item")
	if len(items) != 2 {
		t.Fatalf("merged items = %d\n%s", len(items), merged.Indent())
	}
}

func TestUnknownMessageType(t *testing.T) {
	srv, _, _ := startServer(t)
	var resp wire.Empty
	if err := cliCall(t, srv.Addr(), "teleport", wire.Empty{}, &resp); err == nil {
		t.Error("unknown type accepted")
	}
}

// One-way frames (ID 0) get no answer, whatever is wrong with them; the
// only frame that comes back is the call's reply.
func TestOneWayFramesGetNoAnswer(t *testing.T) {
	srv, _, signer := startServer(t)
	wc, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	wc.OnNotify(func(msgType string, _ wire.Payload) {
		t.Errorf("the store answered a one-way frame: %q", msgType)
	})
	ctx := context.Background()
	for typ, payload := range map[string]any{wire.TypeFetch: "not a fetch request", "no-such-type": wire.Empty{}} {
		if err := wc.Send(ctx, typ, payload); err != nil {
			t.Fatal(err)
		}
	}
	// Frames are served in order: the reply means both are done with.
	q := signer.Sign(srv.Engine.ID(), "alice", mp("/user[@id='alice']/presence"), token.VerbFetch, "bob", time.Minute)
	if err := wc.Call(ctx, wire.TypeFetch, &wire.FetchRequest{Query: q}, nil); err != nil {
		t.Fatal(err)
	}
}
