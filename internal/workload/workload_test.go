package workload

import (
	"context"
	"log/slog"
	"strings"
	"testing"
	"time"

	"gupster/internal/eventlog"
	"gupster/internal/presence"
	"gupster/internal/reachme"
	"gupster/internal/schema"
	"gupster/internal/wire"
	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

func TestPopulationDeterminismAndSkew(t *testing.T) {
	p1 := NewPopulation(100, 1.2, 7)
	p2 := NewPopulation(100, 1.2, 7)
	for i := 0; i < 50; i++ {
		if p1.Next() != p2.Next() {
			t.Fatal("population not deterministic")
		}
	}
	// Zipf skew: the most popular user dominates.
	p := NewPopulation(1000, 1.2, 42)
	counts := map[string]int{}
	for i := 0; i < 10000; i++ {
		counts[p.Next()]++
	}
	if counts[UserID(0)] < counts[UserID(500)] {
		t.Errorf("no skew: head=%d mid=%d", counts[UserID(0)], counts[UserID(500)])
	}
	// Uniform draws cover broadly.
	seen := map[string]bool{}
	for i := 0; i < 2000; i++ {
		seen[p.Uniform()] = true
	}
	if len(seen) < 500 {
		t.Errorf("uniform coverage = %d users", len(seen))
	}
}

func TestGeneratorsAreSchemaValid(t *testing.T) {
	s := schema.GUP()
	rng := Rand(3)
	book := AddressBook(25, rng)
	if got := len(book.ChildrenNamed("item")); got != 25 {
		t.Errorf("book items = %d", got)
	}
	if err := s.ValidateComponent(xpath.MustParse("/user/address-book"), book); err != nil {
		t.Errorf("book: %v", err)
	}
	cal := Calendar(6, rng)
	if err := s.ValidateComponent(xpath.MustParse("/user/calendar"), cal); err != nil {
		t.Errorf("calendar: %v", err)
	}
	devs := Devices("u00001")
	if err := s.ValidateComponent(xpath.MustParse("/user/devices"), devs); err != nil {
		t.Errorf("devices: %v", err)
	}
	prefs := ReachMePreferences()
	if err := s.ValidateComponent(xpath.MustParse("/user/preferences"), prefs); err != nil {
		t.Errorf("preferences: %v", err)
	}
	sized := AddressBookOfSize(8192, rng)
	if sized.Size() < 8192 {
		t.Errorf("sized book = %d bytes", sized.Size())
	}
	if err := s.ValidateComponent(xpath.MustParse("/user/address-book"), sized); err != nil {
		t.Errorf("sized book: %v", err)
	}
}

func TestSplitAddressBook(t *testing.T) {
	book := AddressBook(30, Rand(5))
	personal, corporate := SplitAddressBook(book)
	total := len(personal.ChildrenNamed("item")) + len(corporate.ChildrenNamed("item"))
	if total != 30 {
		t.Errorf("split lost items: %d", total)
	}
	for _, it := range personal.ChildrenNamed("item") {
		if v, _ := it.Attr("type"); v != "personal" {
			t.Errorf("misfiled item: %s", it)
		}
	}
}

func TestTestbedEndToEnd(t *testing.T) {
	tb, err := NewTestbed(TestbedOptions{Users: 3, BookEntries: 12, Seed: 11, AllowRole: "reachme"})
	if err != nil {
		t.Fatalf("NewTestbed: %v", err)
	}
	defer tb.Close()

	if len(tb.Users) != 3 {
		t.Fatalf("users = %v", tb.Users)
	}
	user := tb.Users[0]
	cli, err := tb.Client(user, "self")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Presence lives at the portal.
	doc, err := cli.Get(ctx, "/user[@id='"+user+"']/presence")
	if err != nil {
		t.Fatalf("presence: %v", err)
	}
	if st, _ := doc.Child("presence").Attr("status"); st != "available" {
		t.Errorf("presence = %s", doc)
	}
	// Location flowed from the HLR through OnMove.
	doc, err = cli.Get(ctx, "/user[@id='"+user+"']/location")
	if err != nil {
		t.Fatalf("location: %v", err)
	}
	if v, _ := doc.Child("location").Attr("onair"); v != "true" {
		t.Errorf("location = %s", doc)
	}
	// The address book merges portal (personal) and enterprise (corporate).
	doc, err = cli.Get(ctx, "/user[@id='"+user+"']/address-book")
	if err != nil {
		t.Fatalf("address-book: %v", err)
	}
	if got := len(doc.Child("address-book").ChildrenNamed("item")); got != 12 {
		t.Errorf("merged book = %d items", got)
	}
	// The devices component merges four stores.
	doc, err = cli.Get(ctx, "/user[@id='"+user+"']/devices")
	if err != nil {
		t.Fatalf("devices: %v", err)
	}
	networks := map[string]bool{}
	doc.Walk(func(n *xmltree.Node) bool {
		if n.Name == "device" {
			v, _ := n.Attr("network")
			networks[v] = true
		}
		return true
	})
	for _, want := range []string{"wireless", "pstn", "voip", "im"} {
		if !networks[want] {
			t.Errorf("devices missing network %q (have %v)", want, networks)
		}
	}
	// Self came through the LDAP adapter.
	doc, err = cli.Get(ctx, "/user[@id='"+user+"']/self")
	if err != nil {
		t.Fatalf("self: %v", err)
	}
	if !strings.Contains(doc.Child("self").ChildText("email"), "@enterprise.example") {
		t.Errorf("self = %s", doc)
	}
}

func TestTestbedReachMe(t *testing.T) {
	tb, err := NewTestbed(TestbedOptions{Users: 2, Seed: 13, AllowRole: "reachme"})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	user := tb.Users[0]
	cli, err := tb.Client("reachme-svc", "reachme")
	if err != nil {
		t.Fatal(err)
	}
	svc := &reachme.Service{Profile: reachme.GetterFunc(
		func(ctx context.Context, path string) (*xmltree.Node, error) {
			return cli.Get(ctx, path)
		})}
	// Monday 10:00: preference rule sends the call to the office line.
	at := time.Date(2026, 7, 6, 10, 0, 0, 0, time.UTC)
	d, err := svc.Decide(context.Background(), user, at)
	if err != nil {
		t.Fatalf("Decide: %v", err)
	}
	if len(d.Attempts) == 0 || d.Attempts[0].Device != "office" {
		t.Errorf("attempts = %+v", d.Attempts)
	}
	if d.Sources < 4 {
		t.Errorf("sources = %d", d.Sources)
	}
	// The decision must land far inside the paper's "few seconds" budget.
	if d.Elapsed > 2*time.Second {
		t.Errorf("decision took %v", d.Elapsed)
	}
}

func TestTestbedPresenceChurnInvalidatesAndNotifies(t *testing.T) {
	tb, err := NewTestbed(TestbedOptions{Users: 1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	user := tb.Users[0]
	tb.WatchPresence(user)

	cli, err := tb.Client(user, "self")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan wire.Notification, 4)
	if _, err := cli.Subscribe(context.Background(), "/user[@id='"+user+"']/presence", func(n wire.Notification) {
		got <- n
	}); err != nil {
		t.Fatal(err)
	}
	tb.Presence.Set(user, "busy", "in a meeting")
	select {
	case n := <-got:
		if !strings.Contains(n.XML, "busy") {
			t.Errorf("notification = %q", n.XML)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("presence change never pushed")
	}
}

// A presence note the portal store refuses (a control character its stored
// document could not read back) is a Warn event naming the user, the store
// and the error, and the portal goes on serving the status it held.
func TestTestbedLogsRefusedPresence(t *testing.T) {
	tb, err := NewTestbed(TestbedOptions{Users: 1, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	user := tb.Users[0]
	tb.WatchPresence(user)
	events := eventlog.Install(slog.LevelWarn)
	defer events.Remove()

	tb.Presence.Set(user, presence.Busy, "a\x01b")
	refused := eventlog.Is("store refused a component", "user", user, "store", StorePortal, "component", "presence")
	ev, ok := events.Await(0, time.Now().Add(time.Second), refused)
	if !ok {
		t.Fatalf("no Warn event for the refused presence write; events: %+v", events.Since(0))
	}
	if ev.Level != slog.LevelWarn || ev.Attrs["err"].String() == "" {
		t.Errorf("event = %+v, want a Warn carrying the store's error", ev)
	}

	cli, err := tb.Client(user, "self")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := cli.Get(context.Background(), "/user[@id='"+user+"']/presence")
	if err != nil {
		t.Fatal(err)
	}
	if status, _ := doc.Child("presence").Attr("status"); status != string(presence.Available) {
		t.Errorf("presence served after the refused write: %s", doc)
	}
}

// The paper's "retrieve Alice's buddies who are available" (req 5) over the
// full converged stack: the buddy list lives at the portal, each buddy's
// presence is fetched under that buddy's own privacy shield.
func TestTestbedAvailableBuddies(t *testing.T) {
	tb, err := NewTestbed(TestbedOptions{Users: 5, Seed: 23, AllowRole: "reachme"})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	cli, err := tb.Client("reachme-svc", "reachme")
	if err != nil {
		t.Fatal(err)
	}
	getter := reachme.GetterFunc(func(ctx context.Context, path string) (*xmltree.Node, error) {
		return cli.Get(ctx, path)
	})
	user := tb.Users[0]
	// Make one buddy busy.
	busy := tb.Users[1]
	tb.WatchPresence(busy)
	tb.Presence.Set(busy, presence.Busy, "")

	available, all, err := reachme.AvailableBuddies(context.Background(), getter, user)
	if err != nil {
		t.Fatalf("AvailableBuddies: %v", err)
	}
	if len(all) != 3 {
		t.Fatalf("buddy list = %+v", all)
	}
	if len(available) != 2 {
		t.Errorf("available = %+v (all %+v)", available, all)
	}
	for _, b := range available {
		if b.Name == busy {
			t.Errorf("busy buddy reported available: %+v", b)
		}
	}
	// Without the reachme role the per-buddy shields deny presence, so no
	// buddy shows as available — per-owner control survives the join.
	stranger, err := tb.Client("eve", "third-party")
	if err != nil {
		t.Fatal(err)
	}
	strangerGetter := reachme.GetterFunc(func(ctx context.Context, path string) (*xmltree.Node, error) {
		return stranger.Get(ctx, path)
	})
	if _, _, err := reachme.AvailableBuddies(context.Background(), strangerGetter, user); err == nil {
		t.Error("stranger read the buddy list")
	}
}
