package core_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"gupster/internal/store"
	"gupster/internal/token"
	"gupster/internal/wire"
	"gupster/internal/xpath"
)

// Failure injection: the paper's reliability requirement (§2.3 req 12) is
// addressed by redundancy — referral alternatives are choices, so clients
// survive store failures, and the MDM registry survives store departures.

func TestFailoverToSecondAlternative(t *testing.T) {
	r := newRig(t, 0)
	r.addStore("s1")
	r.addStore("s2")
	book := `<address-book><item name="rick"><phone>1</phone></item></address-book>`
	for _, id := range []string{"s1", "s2"} {
		r.register(id, "/user[@id='u']/address-book")
		r.seed(id, "u", "/user[@id='u']/address-book", book)
	}
	cli := r.client("u", "self")

	// Kill the store that sorts first (s1): the client must fail over to
	// the s2 alternative transparently.
	r.stores["s1"].Close()
	doc, err := cli.Get(context.Background(), "/user[@id='u']/address-book")
	if err != nil {
		t.Fatalf("failover Get: %v", err)
	}
	if doc.Child("address-book") == nil {
		t.Fatalf("failover returned %s", doc)
	}
}

func TestAllAlternativesDown(t *testing.T) {
	r := newRig(t, 0)
	r.addStore("s1")
	r.register("s1", "/user[@id='u']/presence")
	r.seed("s1", "u", "/user[@id='u']/presence", `<presence status="on"/>`)
	cli := r.client("u", "self")
	r.stores["s1"].Close()

	if _, err := cli.Get(context.Background(), "/user[@id='u']/presence"); err == nil {
		t.Fatal("Get succeeded with every store down")
	}
	// The MDM itself stays healthy.
	if _, err := cli.Stats(context.Background()); err != nil {
		t.Fatalf("MDM unhealthy after store failure: %v", err)
	}
}

func TestChainingFailsOverAcrossAlternatives(t *testing.T) {
	r := newRig(t, 0)
	r.addStore("s1")
	r.addStore("s2")
	for _, id := range []string{"s1", "s2"} {
		r.register(id, "/user[@id='u']/calendar")
		r.seed(id, "u", "/user[@id='u']/calendar", `<calendar><event id="e"><title>x</title></event></calendar>`)
	}
	cli := r.client("u", "self")
	r.stores["s1"].Close()
	doc, err := cli.GetVia(context.Background(), "/user[@id='u']/calendar", wire.PatternChaining)
	if err != nil {
		t.Fatalf("chaining failover: %v", err)
	}
	if doc == nil || doc.Child("calendar") == nil {
		t.Fatalf("chaining failover returned %v", doc)
	}
}

func TestPartialAlternativeWithDeadMemberFails(t *testing.T) {
	// A split component needs all its pieces; losing one store must surface
	// an error rather than silently returning half the data.
	r := newRig(t, 0)
	r.addStore("s1")
	r.addStore("s2")
	r.register("s1", "/user[@id='u']/address-book/item[@type='personal']")
	r.register("s2", "/user[@id='u']/address-book/item[@type='corporate']")
	r.seed("s1", "u", "/user[@id='u']/address-book",
		`<address-book><item name="mom" type="personal"><phone>1</phone></item></address-book>`)
	r.seed("s2", "u", "/user[@id='u']/address-book",
		`<address-book><item name="boss" type="corporate"><phone>2</phone></item></address-book>`)
	cli := r.client("u", "self")

	r.stores["s2"].Close()
	if _, err := cli.Get(context.Background(), "/user[@id='u']/address-book"); err == nil {
		t.Fatal("merged fetch succeeded with a dead piece — silent data loss")
	}
	// The surviving piece is still directly reachable.
	if _, err := cli.Get(context.Background(), "/user[@id='u']/address-book/item[@type='personal']"); err != nil {
		t.Fatalf("surviving piece unreachable: %v", err)
	}
}

func TestClientReconnectsAfterStoreRestart(t *testing.T) {
	r := newRig(t, 0)
	s1 := r.addStore("s1")
	r.register("s1", "/user[@id='u']/presence")
	r.seed("s1", "u", "/user[@id='u']/presence", `<presence status="on"/>`)
	cli := r.client("u", "self")

	if _, err := cli.Get(context.Background(), "/user[@id='u']/presence"); err != nil {
		t.Fatalf("first Get: %v", err)
	}
	// Restart the store on the same address.
	addr := s1.Addr()
	s1.Close()
	if _, err := cli.Get(context.Background(), "/user[@id='u']/presence"); err == nil {
		t.Fatal("Get succeeded against a dead store")
	}
	restarted := store.NewServer(s1.Engine, r.signer)
	if err := restarted.Start(addr); err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer restarted.Close()

	// The client's pooled connection was dropped on failure; the next call
	// re-dials and succeeds.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := cli.Get(context.Background(), "/user[@id='u']/presence")
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("never recovered after restart: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestExpiredGrantCannotBeReplayed(t *testing.T) {
	// Replaying an old referral after its TTL fails even if the client
	// kept the bytes (the §5.3 timestamp check).
	r := newRig(t, 0)
	r.addStore("s1")
	r.register("s1", "/user[@id='u']/presence")
	r.seed("s1", "u", "/user[@id='u']/presence", `<presence status="on"/>`)

	past := r.signer.WithClock(func() time.Time { return time.Now().Add(-time.Hour) })
	stale := past.Sign("s1", "u", xpath.MustParse("/user[@id='u']/presence"), token.VerbFetch, "u", time.Second)

	sc, err := store.DialClient(r.stores["s1"].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if _, _, err := sc.Fetch(context.Background(), stale); err == nil || !strings.Contains(err.Error(), "expired") {
		t.Fatalf("stale grant: %v", err)
	}
}
