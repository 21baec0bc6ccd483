package policy

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"gupster/internal/xpath"
)

// picker turns fuzz input into generator decisions, zero once it runs out.
type picker []byte

func (c *picker) pick(n int) int {
	if len(*c) == 0 {
		return 0
	}
	b := (*c)[0]
	*c = (*c)[1:]
	return int(b) % n
}

// scopes are the paths rules and requests are drawn from: the owner's whole
// profile, a section, pieces below it, a sibling section, unpinned paths and
// another owner's section, so a request lies at, above or below a rule's
// scope, or beside it.
var scopes = []string{
	"/user[@id='o']",
	"/user[@id='o']/address-book",
	"/user[@id='o']/address-book/item[@type='personal']",
	"/user[@id='o']/address-book/item[@type='corporate']",
	"/user[@id='o']/presence",
	"/user/address-book",
	"/user/address-book/item[@type='personal']",
	"/user[@id='p']/address-book",
}

// genCond draws a rule condition: none, one on role, requester or time of
// day, or a negation or conjunction of those.
func genCond(c *picker, depth int) Condition {
	inner := func() Condition {
		if x := genCond(c, depth-1); x != nil {
			return x
		}
		return Always{}
	}
	switch c.pick(8) {
	case 1:
		return RoleIs([]string{"friend", "self", "family"}[c.pick(3)])
	case 2:
		return RequesterIs([]string{"o", "f", "g"}[c.pick(3)])
	case 3:
		return HoursBetween([]string{"09:00", "18:00"}[c.pick(2)], []string{"17:00", "08:00"}[c.pick(2)])
	case 4:
		if depth > 0 {
			return Not{C: inner()}
		}
	case 5:
		if depth > 0 {
			return And{inner(), inner()}
		}
	}
	return nil
}

// genShield builds a shield for owner "o" of 0–24 rules. IDs repeat, scopes
// overlap, effects mix and priorities tie, among them at the implicit owner
// rule's priority.
func genShield(c *picker) *Shield {
	s := &Shield{Owner: "o", Rules: make([]Rule, c.pick(25))}
	for i := range s.Rules {
		s.Rules[i] = Rule{
			ID:       []string{"a", "b", "c", "d", "e", "f"}[c.pick(6)],
			Path:     xpath.MustParse(scopes[c.pick(len(scopes))]),
			Cond:     genCond(c, 2),
			Effect:   Effect(c.pick(2)),
			Priority: []int{0, 0, 1, 10, ownerPriority}[c.pick(5)],
		}
	}
	return s
}

// genRequest draws a request path and a context at a fixed time of day.
func genRequest(c *picker) (xpath.Path, Context) {
	req := xpath.MustParse(scopes[c.pick(len(scopes))])
	ctx := Context{
		Requester: []string{"o", "f", "g", ""}[c.pick(4)],
		Role:      []string{"self", "friend", "family", ""}[c.pick(4)],
		Time:      time.Date(2026, 7, 6, []int{10, 20, 3}[c.pick(3)], 30, 0, 0, time.UTC),
	}
	return req, ctx
}

func render(d Decision) string {
	grants := make([]string, len(d.Grants))
	for i, g := range d.Grants {
		grants[i] = g.String()
	}
	return d.Effect.String() + " " + d.RuleID + " [" + strings.Join(grants, " ") + "]"
}

// checkDecideAgainstReference decides one request on s, through the
// decision point, and through the oracle on a copy; effect, rule and
// rendered grants must agree.
func checkDecideAgainstReference(t *testing.T, s *Shield, req xpath.Path, ctx Context) {
	t.Helper()
	want := render(referenceDecide(s, req, ctx))
	if got := render(s.Decide(req, ctx)); got != want {
		t.Fatalf("Decide(%s) as %+v = %s, reference %s\nshield: %v", req, ctx, got, want, s.Rules)
	}
	repo := NewRepository()
	repo.Put(s)
	pdp := &DecisionPoint{Repo: repo}
	if got := render(pdp.Decide(s.Owner, req, ctx)); got != want {
		t.Fatalf("DecisionPoint.Decide(%s) as %+v = %s, reference %s", req, ctx, got, want)
	}
}

func FuzzDecideMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 8+rng.Intn(160))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := picker(data)
		s := genShield(&c)
		for i := 0; i < 4; i++ {
			req, ctx := genRequest(&c)
			checkDecideAgainstReference(t, s, req, ctx)
		}
	})
}

// The fuzz target's generator over random inputs: the verdicts it reaches
// must include full permits, denials and narrowed grants.
func TestDecideMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	kinds := map[string]int{}
	for i := 0; i < 5000; i++ {
		data := make([]byte, 8+rng.Intn(256))
		rng.Read(data)
		c := picker(data)
		s := genShield(&c)
		req, ctx := genRequest(&c)
		checkDecideAgainstReference(t, s, req, ctx)
		d := s.Decide(req, ctx)
		switch {
		case d.Effect == Deny:
			kinds["deny"]++
		case d.Full(req):
			kinds["full"]++
		default:
			kinds["narrowed"]++
		}
	}
	for _, k := range []string{"deny", "full", "narrowed"} {
		if kinds[k] < 100 {
			t.Errorf("%s: %d of 5000 generated decisions, want ≥ 100", k, kinds[k])
		}
	}
}

// TestDecideSeesWholeShields (run it under -race): decisions made while
// PutRule, DeleteRule and Replace rewrite the same owner's shield each
// equal the decision of one shield the owner really had, never a mix.
func TestDecideSeesWholeShields(t *testing.T) {
	base := Rule{ID: "friends", Path: mp("/user[@id='o']"), Cond: RoleIs("friend"), Effect: Permit}
	lock := Rule{ID: "lock", Path: mp("/user[@id='o']"), Effect: Deny, Priority: 5}
	narrow := []Rule{
		{ID: "personal", Path: mp("/user[@id='o']/address-book/item[@type='personal']"), Cond: RoleIs("friend"), Effect: Permit},
		{ID: "corporate", Path: mp("/user[@id='o']/address-book/item[@type='corporate']"), Cond: RoleIs("friend"), Effect: Permit},
	}
	req, ctx := mp("/user[@id='o']/address-book"), Context{Requester: "f", Role: "friend"}
	whole := map[string]bool{}
	for _, rules := range [][]Rule{
		narrow,
		append(narrow[:2:2], base),
		append(narrow[:2:2], base, lock),
	} {
		whole[render((&Shield{Owner: "o", Rules: rules}).Decide(req, ctx))] = true
	}

	pap := &AdministrationPoint{Repo: NewRepository()}
	pdp := &DecisionPoint{Repo: pap.Repo}
	replace := func() {
		fresh := NewRepository()
		fresh.Put(&Shield{Owner: "o", Rules: narrow})
		pap.Repo.Replace(fresh)
	}
	replace()
	var wg sync.WaitGroup
	done := make(chan struct{})
	seen := make([]map[string]int, 2)
	for i := range seen {
		seen[i] = map[string]int{}
		wg.Add(1)
		go func(seen map[string]int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				seen[render(pdp.Decide("o", req, ctx))]++
			}
		}(seen[i])
	}
	for i := 0; i < 500; i++ {
		for _, err := range []error{
			pap.PutRule("o", base),
			pap.PutRule("o", lock),
			pap.DeleteRule("o", "lock"),
		} {
			if err != nil {
				t.Error(err)
			}
		}
		replace()
	}
	close(done)
	wg.Wait()
	for _, s := range seen {
		t.Logf("decisions seen: %v", s)
		for d, n := range s {
			if !whole[d] {
				t.Errorf("decided %q %d times: no shield the owner had decides that", d, n)
			}
		}
	}
}
