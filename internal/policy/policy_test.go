package policy

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"gupster/internal/schema"
	"gupster/internal/xpath"
)

func mp(s string) xpath.Path { return xpath.MustParse(s) }

// at builds a context timestamped at the given weekday and clock time.
func at(day time.Weekday, clock string) time.Time {
	// 2026-07-06 is a Monday.
	base := time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)
	base = base.AddDate(0, 0, (int(day)-int(base.Weekday())+7)%7)
	tt, err := time.Parse("15:04", clock)
	if err != nil {
		panic(err)
	}
	return time.Date(base.Year(), base.Month(), base.Day(), tt.Hour(), tt.Minute(), 0, 0, time.UTC)
}

// The paper's worked privacy shield (§4.6): co-workers see presence during
// working hours; boss and family see presence any time; family sees the
// personal address book and the calendar.
func paperShield() *Shield {
	return &Shield{
		Owner: "alice",
		Rules: []Rule{
			{ID: "coworker-presence", Path: mp("/user[@id='alice']/presence"),
				Cond: And{RoleIs("co-worker"), HoursBetween("09:00", "18:00")}, Effect: Permit},
			{ID: "boss-presence", Path: mp("/user[@id='alice']/presence"),
				Cond: RoleIs("boss"), Effect: Permit},
			{ID: "family-presence", Path: mp("/user[@id='alice']/presence"),
				Cond: RoleIs("family"), Effect: Permit},
			{ID: "family-personal-ab", Path: mp("/user[@id='alice']/address-book/item[@type='personal']"),
				Cond: RoleIs("family"), Effect: Permit},
			{ID: "family-calendar", Path: mp("/user[@id='alice']/calendar"),
				Cond: RoleIs("family"), Effect: Permit},
		},
	}
}

func TestPaperShield(t *testing.T) {
	s := paperShield()
	presence := mp("/user[@id='alice']/presence")

	// Co-worker during working hours: permit.
	d := s.Decide(presence, Context{Requester: "bob", Role: "co-worker", Time: at(time.Monday, "10:00")})
	if !d.Full(presence) {
		t.Errorf("co-worker at 10:00: %+v", d)
	}
	// Co-worker at night: deny.
	d = s.Decide(presence, Context{Requester: "bob", Role: "co-worker", Time: at(time.Monday, "23:00")})
	if d.Granted() {
		t.Errorf("co-worker at 23:00 granted: %+v", d)
	}
	// Boss any time.
	d = s.Decide(presence, Context{Requester: "carol", Role: "boss", Time: at(time.Sunday, "03:00")})
	if !d.Granted() {
		t.Errorf("boss at 03:00 denied")
	}
	// Family sees calendar.
	cal := mp("/user[@id='alice']/calendar")
	d = s.Decide(cal, Context{Requester: "mom", Role: "family"})
	if !d.Full(cal) {
		t.Errorf("family calendar: %+v", d)
	}
	// Third party sees nothing.
	d = s.Decide(presence, Context{Requester: "spammer", Role: "third-party", Time: at(time.Monday, "10:00")})
	if d.Granted() {
		t.Errorf("third party granted")
	}
}

func TestNarrowedGrant(t *testing.T) {
	s := paperShield()
	// Family asks for the whole address book but is only permitted the
	// personal items: the decision narrows the grant.
	book := mp("/user[@id='alice']/address-book")
	d := s.Decide(book, Context{Requester: "mom", Role: "family"})
	if !d.Granted() {
		t.Fatalf("family address book denied")
	}
	if d.Full(book) {
		t.Fatalf("family should not get the whole book")
	}
	if len(d.Grants) != 1 || d.Grants[0].String() != "/user[@id='alice']/address-book/item[@type='personal']" {
		t.Errorf("grants = %v", d.Grants)
	}
}

func TestOwnerAccess(t *testing.T) {
	s := paperShield()
	wallet := mp("/user[@id='alice']/wallet")
	d := s.Decide(wallet, Context{Requester: "alice", Role: "self"})
	if !d.Full(wallet) {
		t.Errorf("owner denied own wallet: %+v", d)
	}
	if d.RuleID != "owner" {
		t.Errorf("rule = %q", d.RuleID)
	}
	// An administrative lock outranks the owner.
	s.Rules = append(s.Rules, Rule{
		ID: "fraud-lock", Path: mp("/user[@id='alice']/wallet"),
		Effect: Deny, Priority: ownerPriority + 1,
	})
	d = s.Decide(wallet, Context{Requester: "alice", Role: "self"})
	if d.Granted() {
		t.Errorf("fraud lock bypassed: %+v", d)
	}
}

func TestDenyWinsTies(t *testing.T) {
	s := &Shield{Owner: "u", Rules: []Rule{
		{ID: "p", Path: mp("/user[@id='u']/presence"), Effect: Permit},
		{ID: "d", Path: mp("/user[@id='u']/presence"), Effect: Deny},
	}}
	d := s.Decide(mp("/user[@id='u']/presence"), Context{Requester: "x"})
	if d.Granted() || d.RuleID != "d" {
		t.Errorf("tie not resolved to deny: %+v", d)
	}
}

func TestPriorityOverride(t *testing.T) {
	s := &Shield{Owner: "u", Rules: []Rule{
		{ID: "deny-all", Path: mp("/user[@id='u']"), Effect: Deny, Priority: 0},
		{ID: "allow-presence", Path: mp("/user[@id='u']/presence"), Effect: Permit, Priority: 5},
	}}
	// The higher-priority permit on presence beats the blanket deny.
	d := s.Decide(mp("/user[@id='u']/presence"), Context{Requester: "x"})
	if !d.Granted() || d.RuleID != "allow-presence" {
		t.Errorf("priority override failed: %+v", d)
	}
	// But the calendar stays denied.
	d = s.Decide(mp("/user[@id='u']/calendar"), Context{Requester: "x"})
	if d.Granted() {
		t.Errorf("blanket deny leaked: %+v", d)
	}
}

func TestPartialGrantSuppressedByDeny(t *testing.T) {
	s := &Shield{Owner: "u", Rules: []Rule{
		{ID: "allow-personal", Path: mp("/user[@id='u']/address-book/item[@type='personal']"), Effect: Permit, Priority: 1},
		{ID: "deny-book", Path: mp("/user[@id='u']/address-book"), Effect: Deny, Priority: 2},
	}}
	d := s.Decide(mp("/user[@id='u']/address-book"), Context{Requester: "x"})
	if d.Granted() {
		t.Errorf("higher-priority deny should suppress narrowed grant: %+v", d)
	}
}

func TestDefaultDeny(t *testing.T) {
	s := &Shield{Owner: "u"}
	if d := s.Decide(mp("/user[@id='u']/presence"), Context{Requester: "x"}); d.Granted() {
		t.Error("empty shield must deny")
	}
}

func TestConditions(t *testing.T) {
	mon10 := Context{Time: at(time.Monday, "10:00"), Requester: "r", Role: "family", Purpose: PurposeQuery, Location: "home"}
	cases := []struct {
		c    Condition
		want bool
	}{
		{Always{}, true},
		{RequesterIs("r"), true},
		{RequesterIs("q"), false},
		{RoleIs("family"), true},
		{RoleIs("boss"), false},
		{PurposeIs(PurposeQuery), true},
		{PurposeIs(PurposeCache), false},
		{HoursBetween("09:00", "18:00"), true},
		{HoursBetween("18:00", "09:00"), false}, // wrap-around window, 10:00 outside
		{HoursBetween("22:00", "11:00"), true},  // wrap-around window, 10:00 inside
		{Weekdays{time.Monday}, true},
		{Weekdays{time.Saturday, time.Sunday}, false},
		{And{RoleIs("family"), PurposeIs(PurposeQuery)}, true},
		{And{RoleIs("family"), PurposeIs(PurposeCache)}, false},
		{Or{RoleIs("boss"), RoleIs("family")}, true},
		{Or{RoleIs("boss"), RoleIs("co-worker")}, false},
		{Not{RoleIs("boss")}, true},
		{Not{RoleIs("family")}, false},
	}
	for i, c := range cases {
		if got := c.c.Eval(mon10); got != c.want {
			t.Errorf("case %d (%s): got %v, want %v", i, c.c, got, c.want)
		}
	}
}

func TestConditionStrings(t *testing.T) {
	c := And{RoleIs("family"), Or{TimeBetween{540, 1080}, Weekdays{time.Friday}}, Not{PurposeIs(PurposeCache)}}
	s := c.String()
	for _, frag := range []string{"role=family", "time in [09:00,18:00)", "Fri", "not purpose=cache"} {
		if !strings.Contains(s, frag) {
			t.Errorf("%q missing %q", s, frag)
		}
	}
}

func TestHoursBetweenPanicsOnGarbage(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	HoursBetween("25:99", "09:00")
}

func TestZeroTimeUsesNow(t *testing.T) {
	// A window covering the whole day always matches regardless of "now".
	if !(TimeBetween{0, 1440}).Eval(Context{}) {
		t.Error("all-day window should match")
	}
	if !(Weekdays{0, 1, 2, 3, 4, 5, 6}).Eval(Context{}) {
		t.Error("all-week condition should match")
	}
}

func TestRepositoryAndAdministration(t *testing.T) {
	repo := NewRepository()
	ap := &AdministrationPoint{Repo: repo, ValidatePath: schema.GUP().ValidatePath}

	if _, err := repo.Get("alice"); err == nil {
		t.Error("Get on empty repo should fail")
	}
	r1 := Rule{ID: "r1", Path: mp("/user[@id='alice']/presence"), Effect: Permit, Cond: RoleIs("family")}
	if err := ap.PutRule("alice", r1); err != nil {
		t.Fatalf("PutRule: %v", err)
	}
	// Schema-invalid scope rejected (constraint checking, req. 11).
	bad := Rule{ID: "r2", Path: mp("/user[@id='alice']/hobbies"), Effect: Permit}
	if err := ap.PutRule("alice", bad); err == nil {
		t.Error("invalid scope accepted")
	}
	// Replace in place.
	r1.Effect = Deny
	if err := ap.PutRule("alice", r1); err != nil {
		t.Fatalf("replace: %v", err)
	}
	s, err := repo.Get("alice")
	if err != nil || len(s.Rules) != 1 || s.Rules[0].Effect != Deny {
		t.Fatalf("after replace: %+v, %v", s, err)
	}
	// Delete.
	if err := ap.DeleteRule("alice", "r1"); err != nil {
		t.Fatalf("DeleteRule: %v", err)
	}
	if err := ap.DeleteRule("alice", "r1"); err == nil {
		t.Error("double delete should fail")
	}
	if err := ap.DeleteRule("nobody", "r1"); err == nil {
		t.Error("delete for unknown owner should fail")
	}
	// Missing ID / path rejected.
	if err := ap.PutRule("alice", Rule{Path: mp("/user")}); err == nil {
		t.Error("rule without ID accepted")
	}
	if err := ap.PutRule("alice", Rule{ID: "x"}); err == nil {
		t.Error("rule without path accepted")
	}
}

func TestRepositoryIsolation(t *testing.T) {
	repo := NewRepository()
	s := &Shield{Owner: "u", Rules: []Rule{{ID: "a", Path: mp("/user"), Effect: Permit}}}
	repo.Put(s)
	s.Rules[0].Effect = Deny // mutate caller's copy
	got, _ := repo.Get("u")
	if got.Rules[0].Effect != Permit {
		t.Error("repository shares memory with caller")
	}
	got.Rules[0].Effect = Deny // mutate returned copy
	got2, _ := repo.Get("u")
	if got2.Rules[0].Effect != Permit {
		t.Error("repository shares memory with reader")
	}
}

func TestDecisionPoint(t *testing.T) {
	repo := NewRepository()
	repo.Put(paperShield())
	pdp := &DecisionPoint{Repo: repo, DefaultOwnerAccess: true}

	d := pdp.Decide("alice", mp("/user[@id='alice']/presence"),
		Context{Requester: "mom", Role: "family"})
	if !d.Granted() {
		t.Errorf("family presence denied")
	}
	// Unknown user with owner bootstrap.
	p := mp("/user[@id='bob']/presence")
	d = pdp.Decide("bob", p, Context{Requester: "bob"})
	if !d.Full(p) {
		t.Errorf("owner bootstrap failed: %+v", d)
	}
	// Unknown user, foreign requester.
	if d := pdp.Decide("bob", p, Context{Requester: "eve"}); d.Granted() {
		t.Error("unknown user leaked to foreign requester")
	}
	// Without bootstrap even the owner is denied.
	pdp2 := &DecisionPoint{Repo: repo}
	if d := pdp2.Decide("bob", p, Context{Requester: "bob"}); d.Granted() {
		t.Error("bootstrap off but owner granted")
	}
}

func TestReplicaSync(t *testing.T) {
	repo := NewRepository()
	repo.Put(paperShield())
	rep := NewReplica()

	// Before sync: deny (no shield).
	p := mp("/user[@id='alice']/presence")
	ctx := Context{Requester: "mom", Role: "family"}
	if d := rep.Decide("alice", p, ctx); d.Granted() {
		t.Error("unsynced replica granted")
	}
	if n := rep.SyncFrom(repo); n != 1 {
		t.Errorf("first sync transferred %d shields", n)
	}
	if d := rep.Decide("alice", p, ctx); !d.Granted() {
		t.Error("synced replica denied")
	}
	// No changes → no transfer.
	if n := rep.SyncFrom(repo); n != 0 {
		t.Errorf("idle sync transferred %d", n)
	}
	// A change to another user transfers exactly one shield.
	repo.Put(&Shield{Owner: "bob"})
	if n := rep.SyncFrom(repo); n != 1 {
		t.Errorf("incremental sync transferred %d", n)
	}
}

// Replace swaps in another repository's shields whole: owners it lacks are
// gone, the version only moves forward, and a replica syncing across the
// swap picks up every replaced shield.
func TestRepositoryReplace(t *testing.T) {
	repo := NewRepository()
	repo.Put(paperShield())
	repo.Put(&Shield{Owner: "bob"})
	rep := NewReplica()
	rep.SyncFrom(repo)
	before := repo.Version()

	fresh := NewRepository()
	fresh.Put(&Shield{Owner: "alice"})
	repo.Replace(fresh)

	if v := repo.Version(); v <= before {
		t.Errorf("version went %d -> %d, want it to move forward", before, v)
	}
	if got := repo.ChangedSince(0); !slices.Equal(got, []string{"alice"}) {
		t.Errorf("owners after Replace = %v, want [alice]", got)
	}
	if _, err := repo.Get("bob"); !errors.Is(err, ErrNoShield) {
		t.Errorf("an owner the fresh repository lacks survived: %v", err)
	}
	if n := rep.SyncFrom(repo); n != 1 {
		t.Errorf("sync across Replace transferred %d shields, want 1", n)
	}
	p := mp("/user[@id='alice']/presence")
	if d := rep.Decide("alice", p, Context{Requester: "mom", Role: "family"}); d.Granted() {
		t.Error("replica kept the shield Replace withdrew")
	}
}

func TestEffectString(t *testing.T) {
	if Deny.String() != "deny" || Permit.String() != "permit" {
		t.Error("Effect strings")
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{ID: "r1", Path: mp("/user/presence"), Effect: Permit, Priority: 3}
	s := r.String()
	for _, frag := range []string{"r1", "permit", "prio 3", "/user/presence", "always"} {
		if !strings.Contains(s, frag) {
			t.Errorf("%q missing %q", s, frag)
		}
	}
}
