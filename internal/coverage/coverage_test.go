package coverage

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"gupster/internal/xpath"
)

func mp(s string) xpath.Path { return xpath.MustParse(s) }

func TestUserOf(t *testing.T) {
	if u, ok := UserOf(mp("/user[@id='arnaud']/address-book")); !ok || u != "arnaud" {
		t.Errorf("UserOf = %q, %v", u, ok)
	}
	if _, ok := UserOf(mp("/user/address-book")); ok {
		t.Error("unpinned path should not report a user")
	}
	if _, ok := UserOf(mp("/user[@id]/presence")); ok {
		t.Error("existence predicate is not an identity")
	}
	if _, ok := UserOf(xpath.Path{}); ok {
		t.Error("zero path")
	}
}

// The paper's running example (§4.3): Yahoo! holds Arnaud's address book and
// Rick's address book + game scores; SprintPCS holds Arnaud's address book
// and game scores and his presence.
func TestPaperExample(t *testing.T) {
	r := New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(r.Register(mp("/user[@id='arnaud']/address-book"), "gup.yahoo.com"))
	must(r.Register(mp("/user[@id='arnaud']/address-book"), "gup.spcs.com"))
	must(r.Register(mp("/user[@id='arnaud']/presence"), "gup.spcs.com"))
	must(r.Register(mp("/user[@id='rick']/address-book"), "gup.yahoo.com"))

	ms := r.Lookup(mp("/user[@id='arnaud']/address-book"))
	if len(ms) != 2 {
		t.Fatalf("matches = %v", ms)
	}
	for _, m := range ms {
		if m.Rel != xpath.CoverFull {
			t.Errorf("expected full cover, got %v", m)
		}
	}
	if ms[0].Store != "gup.spcs.com" || ms[1].Store != "gup.yahoo.com" {
		t.Errorf("store order: %v", ms)
	}

	ms = r.Lookup(mp("/user[@id='arnaud']/presence"))
	if len(ms) != 1 || ms[0].Store != "gup.spcs.com" {
		t.Errorf("presence matches = %v", ms)
	}

	// Rick's presence is nowhere.
	if ms := r.Lookup(mp("/user[@id='rick']/presence")); len(ms) != 0 {
		t.Errorf("unexpected matches: %v", ms)
	}
}

// Figure 9: Arnaud's address book split by item type across Yahoo (personal)
// and Lucent (corporate). A request for the whole book gets two partial
// covers; a request for one half gets a single full cover.
func TestSplitAddressBook(t *testing.T) {
	r := New()
	r.Register(mp("/user[@id='arnaud']/address-book/item[@type='personal']"), "gup.yahoo.com")
	r.Register(mp("/user[@id='arnaud']/address-book/item[@type='corporate']"), "gup.lucent.com")

	ms := r.Lookup(mp("/user[@id='arnaud']/address-book"))
	if len(ms) != 2 {
		t.Fatalf("matches = %v", ms)
	}
	for _, m := range ms {
		if m.Rel != xpath.CoverPartial {
			t.Errorf("expected partial, got %v", m)
		}
	}

	ms = r.Lookup(mp("/user[@id='arnaud']/address-book/item[@type='personal']"))
	if len(ms) != 1 || ms[0].Store != "gup.yahoo.com" || ms[0].Rel != xpath.CoverFull {
		t.Errorf("personal half = %v", ms)
	}

	// A deeper request inside one half is fully covered by that half.
	ms = r.Lookup(mp("/user[@id='arnaud']/address-book/item[@type='corporate']/phone"))
	if len(ms) != 1 || ms[0].Store != "gup.lucent.com" || ms[0].Rel != xpath.CoverFull {
		t.Errorf("deep corporate = %v", ms)
	}
}

func TestFullBeforePartialOrdering(t *testing.T) {
	r := New()
	r.Register(mp("/user[@id='a']/address-book/item[@type='x']"), "s-partial")
	r.Register(mp("/user[@id='a']"), "s-full")
	ms := r.Lookup(mp("/user[@id='a']/address-book"))
	if len(ms) != 2 || ms[0].Rel != xpath.CoverFull || ms[1].Rel != xpath.CoverPartial {
		t.Errorf("ordering = %v", ms)
	}
}

func TestRegisterIdempotentAndUnregister(t *testing.T) {
	r := New()
	p := mp("/user[@id='a']/presence")
	r.Register(p, "s1")
	r.Register(p, "s1")
	if r.Len() != 1 {
		t.Errorf("Len = %d after duplicate register", r.Len())
	}
	if err := r.Unregister(p, "s1"); err != nil {
		t.Errorf("Unregister: %v", err)
	}
	if r.Len() != 0 {
		t.Errorf("Len = %d after unregister", r.Len())
	}
	if err := r.Unregister(p, "s1"); err != ErrNotRegistered {
		t.Errorf("second Unregister err = %v", err)
	}
	if err := r.Unregister(mp("/user[@id='zz']/presence"), "s1"); err != ErrNotRegistered {
		t.Errorf("unknown user Unregister err = %v", err)
	}
}

func TestRegisterRejectsBadPaths(t *testing.T) {
	r := New()
	if err := r.Register(xpath.Path{}, "s"); err == nil {
		t.Error("empty path accepted")
	}
	if err := r.Register(mp("/user[@id='a'][@id='b']"), "s"); err == nil {
		t.Error("unsatisfiable path accepted")
	}
}

func TestUnpinnedRegistrationMatchesAllUsers(t *testing.T) {
	r := New()
	// A carrier registering the location of all its subscribers.
	r.Register(mp("/user/location"), "gup.hlr.carrier.com")
	ms := r.Lookup(mp("/user[@id='alice']/location"))
	if len(ms) != 1 || ms[0].Rel != xpath.CoverFull {
		t.Errorf("unpinned registration missed: %v", ms)
	}
}

func TestUnpinnedRequestScansAllUsers(t *testing.T) {
	r := New()
	r.Register(mp("/user[@id='a']/presence"), "s1")
	r.Register(mp("/user[@id='b']/presence"), "s2")
	ms := r.Lookup(mp("/user/presence"))
	if len(ms) != 2 {
		t.Errorf("matches = %v", ms)
	}
	for _, m := range ms {
		if m.Rel != xpath.CoverPartial {
			t.Errorf("per-user registration against all-user request should be partial: %v", m)
		}
	}
}

func TestSectionWildcardRequest(t *testing.T) {
	r := New()
	r.Register(mp("/user[@id='a']/presence"), "s1")
	r.Register(mp("/user[@id='a']/calendar"), "s2")
	// Request across sections must consult every section bucket.
	ms := r.Lookup(mp("/user[@id='a']/*"))
	if len(ms) != 2 {
		t.Errorf("wildcard section matches = %v", ms)
	}
	// Whole-profile request likewise.
	ms = r.Lookup(mp("/user[@id='a']"))
	if len(ms) != 2 {
		t.Errorf("whole-profile matches = %v", ms)
	}
}

func TestIndexedEqualsLinear(t *testing.T) {
	r := New()
	users := []string{"a", "b", "c", "d"}
	sections := []string{"presence", "calendar", "address-book", "devices"}
	n := 0
	for _, u := range users {
		for _, s := range sections {
			store := StoreID(fmt.Sprintf("store-%d", n%3))
			r.Register(mp(fmt.Sprintf("/user[@id='%s']/%s", u, s)), store)
			n++
		}
	}
	r.Register(mp("/user/location"), "hlr")

	queries := []string{
		"/user[@id='a']/presence",
		"/user[@id='b']",
		"/user/calendar",
		"/user[@id='c']/*",
		"/user[@id='zz']/presence",
		"/user[@id='d']/location",
	}
	for _, q := range queries {
		qi := r.Lookup(mp(q))
		ql := r.LinearLookup(mp(q))
		if len(qi) != len(ql) {
			t.Errorf("query %s: indexed %d matches, linear %d", q, len(qi), len(ql))
			continue
		}
		for i := range qi {
			if qi[i].Store != ql[i].Store || qi[i].Rel != ql[i].Rel || qi[i].Path.String() != ql[i].Path.String() {
				t.Errorf("query %s: result %d differs: %v vs %v", q, i, qi[i], ql[i])
			}
		}
	}
}

func TestSnapshot(t *testing.T) {
	r := New()
	r.Register(mp("/user[@id='a']/presence"), "s2")
	r.Register(mp("/user[@id='a']/calendar"), "s1")
	r.Register(mp("/user/location"), "hlr")
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("Snapshot = %v", snap)
	}
	if snap[0].Store != "hlr" || snap[1].Store != "s1" || snap[2].Store != "s2" {
		t.Errorf("Snapshot order: %v", snap)
	}
}

func TestConcurrentAccess(t *testing.T) {
	r := New()
	done := make(chan bool)
	for i := 0; i < 8; i++ {
		go func(i int) {
			defer func() { done <- true }()
			for j := 0; j < 200; j++ {
				p := mp(fmt.Sprintf("/user[@id='u%d']/presence", i))
				r.Register(p, StoreID(fmt.Sprintf("s%d", j%4)))
				r.Lookup(p)
				if j%3 == 0 {
					r.Unregister(p, StoreID(fmt.Sprintf("s%d", j%4)))
				}
			}
		}(i)
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}

// Property: the indexed lookup agrees with the exhaustive linear scan for
// random registration sets and queries — the index is an optimization, not
// a semantics change.
func TestQuickIndexedEqualsLinear(t *testing.T) {
	users := []string{"a", "b", "c", ""}
	sections := []string{"presence", "calendar", "address-book", "devices", "*"}
	deep := []string{"", "/item[@type='personal']", "/item[@type='corporate']", "/device[@network='pstn']"}

	randomPath := func(rng *rand.Rand) xpath.Path {
		u := users[rng.Intn(len(users))]
		sec := sections[rng.Intn(len(sections))]
		p := "/user"
		if u != "" {
			p = fmt.Sprintf("/user[@id='%s']", u)
		}
		if rng.Intn(5) > 0 { // sometimes the bare user path
			p += "/" + sec
			if sec != "*" && rng.Intn(3) == 0 {
				p += deep[rng.Intn(len(deep))]
			}
		}
		parsed, err := xpath.Parse(p)
		if err != nil {
			t.Fatalf("generator bug: %q: %v", p, err)
		}
		return parsed
	}

	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := New()
		n := 1 + rng.Intn(20)
		for i := 0; i < n; i++ {
			r.Register(randomPath(rng), StoreID(fmt.Sprintf("s%d", rng.Intn(4))))
		}
		for q := 0; q < 10; q++ {
			query := randomPath(rng)
			qi, ql := r.Lookup(query), r.LinearLookup(query)
			if len(qi) != len(ql) {
				t.Logf("seed %d query %s: indexed %d vs linear %d", seed, query, len(qi), len(ql))
				return false
			}
			for i := range qi {
				if qi[i].Store != ql[i].Store || qi[i].Rel != ql[i].Rel ||
					qi[i].Path.String() != ql[i].Path.String() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestLookupReturnsEachRegistrationOnce: registrations that pin no user live
// in byUser[""], which every lookup consults, and a request pinned to the
// empty id would reach that bucket twice, once as its own user's. Each
// registration is answered once whatever the request pins: a user, no
// user, every section, or the empty id.
func TestLookupReturnsEachRegistrationOnce(t *testing.T) {
	r := New()
	for _, reg := range []struct{ path, store string }{
		{"/user/address-book", "s1"},
		{"/user/address-book/item[@type='personal']", "s2"},
		{"/user/*", "s3"},
		{"/user", "s4"},
		{"/user[@id='']/address-book", "s5"},
		{"/user[@id='a']/address-book", "s6"},
	} {
		if err := r.Register(mp(reg.path), StoreID(reg.store)); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		req  string
		want int
	}{
		{"/user[@id='a']/address-book", 5},
		{"/user/address-book", 6},
		{"/user[@id='a']", 5},
		{"/user[@id='a']/*", 5},
		{"/user[@id='']/address-book", 5},
		{"/user[@id='']", 5},
	} {
		ms := r.Lookup(mp(c.req))
		seen := map[string]bool{}
		for _, m := range ms {
			k := string(m.Store) + " " + m.Path.String()
			if seen[k] {
				t.Errorf("Lookup(%s) answers %s twice: %v", c.req, k, ms)
			}
			seen[k] = true
		}
		if len(ms) != c.want {
			t.Errorf("Lookup(%s) = %d matches, want %d: %v", c.req, len(ms), c.want, ms)
		}
		if lin := r.LinearLookup(mp(c.req)); len(lin) != len(ms) {
			t.Errorf("Lookup(%s) = %v, LinearLookup %v", c.req, ms, lin)
		}
	}
}
