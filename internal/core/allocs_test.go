package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"gupster/internal/coverage"
	"gupster/internal/overload"
	"gupster/internal/policy"
	"gupster/internal/provenance"
	"gupster/internal/racetag"
	"gupster/internal/schema"
	"gupster/internal/token"
	"gupster/internal/wire"
	"gupster/internal/xpath"
)

var bookKinds = []string{"personal", "corporate", "family", "other"}

// benchShield is the benchmark's 8-rule privacy shield for owner: one rule
// grants a friend the address book, three more hold for a friend but scope
// other sections, and four have conditions a friend fails, so a decision
// walks the whole set.
func benchShield(owner string) []policy.Rule {
	at := func(rest string) xpath.Path { return xpath.MustParse("/user[@id='" + owner + "']" + rest) }
	friend := policy.RoleIs("friend")
	return []policy.Rule{
		{ID: "friends-book", Path: at("/address-book"), Cond: friend, Effect: policy.Permit},
		{ID: "friends-presence", Path: at("/presence"), Cond: friend, Effect: policy.Permit},
		{ID: "friends-calendar", Path: at("/calendar"), Cond: friend, Effect: policy.Permit},
		{ID: "wallet-lock", Path: at("/wallet"), Cond: policy.Not{C: policy.RoleIs("self")}, Effect: policy.Deny, Priority: 10},
		{ID: "family-all", Path: at(""), Cond: policy.RoleIs("family"), Effect: policy.Permit},
		{ID: "boss-self", Path: at("/self"), Cond: policy.RoleIs("boss"), Effect: policy.Permit},
		{ID: "coworker-hours", Path: at("/presence"), Cond: policy.And{policy.RoleIs("co-worker"), policy.HoursBetween("09:00", "18:00")}, Effect: policy.Permit},
		{ID: "third-party", Path: at(""), Cond: policy.RoleIs("third-party"), Effect: policy.Deny, Priority: 10},
	}
}

// resolveMDM is the MDM as gupsterd ships it (schema, adjuncts, provenance
// ledger, admission, a 64-entry cache) directing owners u00000… to their
// address books, each split split ways across stores, behind benchShield.
// It returns the friend's request for each owner's book.
func resolveMDM(tb testing.TB, owners, split int) (*MDM, []*wire.ResolveRequest) {
	tb.Helper()
	m := New(Config{
		Schema:       schema.GUP(),
		Signer:       token.NewSigner([]byte("allocs-key")),
		GrantTTL:     30 * time.Second,
		CacheEntries: 64,
		Adjuncts:     schema.GUPAdjuncts(),
		Provenance:   provenance.NewLedger(4096),
		Overload:     overload.Config{MaxConcurrency: 64},
	})
	tb.Cleanup(m.Close)
	rctx := policy.Context{Requester: "friend-1", Role: "friend", Purpose: policy.PurposeQuery}
	reqs := make([]*wire.ResolveRequest, owners)
	for i := range reqs {
		owner := fmt.Sprintf("u%05d", i)
		for j, kind := range bookKinds[:split] {
			st := coverage.StoreID(fmt.Sprintf("s%d.gup.example", (i*split+j)%8))
			p := xpath.MustParse("/user[@id='" + owner + "']/address-book/item[@type='" + kind + "']")
			if err := m.Register(st, "127.0.0.1:1", p); err != nil {
				tb.Fatal(err)
			}
		}
		for _, rule := range benchShield(owner) {
			if err := m.PAP.PutRule(owner, rule); err != nil {
				tb.Fatal(err)
			}
		}
		reqs[i] = &wire.ResolveRequest{Path: "/user[@id='" + owner + "']/address-book", Context: rctx, Verb: token.VerbFetch}
	}
	return m, reqs
}

// chained returns req as a chaining resolve, with its answer filled into
// m's cache as a chaining miss would have filled it.
func chained(tb testing.TB, m *MDM, req *wire.ResolveRequest) *wire.ResolveRequest {
	tb.Helper()
	p := xpath.MustParse(req.Path)
	owner, _ := coverage.UserOf(p)
	grants := m.PDP.Decide(owner, p, req.Context).Grants
	_, ttl := m.cacheableGrants(grants)
	if !m.cache.fill(cacheKey(owner, renderGrants(grants)), owner, "<address-book/>", m.cache.gen(owner), ttl) {
		tb.Fatal("cache fill refused")
	}
	c := *req
	c.Pattern = wire.PatternChaining
	return &c
}

// TestResolveAllocs is the MDM row of the resolve path's allocation gate:
// a referral signs one token per piece of the split book, and a chaining
// resolve the cache answers signs none and intersects nothing. They measure
// 28, 20 and 11 (the parsed path's steps and predicates are one array
// each); every ceiling is that plus at most 10 %, the cache hit's none.
func TestResolveAllocs(t *testing.T) {
	if racetag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	m4, reqs4 := resolveMDM(t, 16, 4)
	m2, reqs2 := resolveMDM(t, 16, 2)
	ctx := context.Background()
	for _, c := range []struct {
		name string
		max  float64
		m    *MDM
		req  *wire.ResolveRequest
		ok   func(*wire.ResolveResponse) bool
	}{
		{"referral 4way", 30, m4, reqs4[3], func(r *wire.ResolveResponse) bool {
			return len(r.Alternatives) == 1 && len(r.Alternatives[0].Referrals) == 4
		}},
		{"referral 2way", 22, m2, reqs2[3], func(r *wire.ResolveResponse) bool {
			return len(r.Alternatives) == 1 && len(r.Alternatives[0].Referrals) == 2
		}},
		{"chaining hit 4way", 11, m4, chained(t, m4, reqs4[5]), func(r *wire.ResolveResponse) bool { return r.Cached }},
	} {
		var resp *wire.ResolveResponse
		var err error
		allocs := testing.AllocsPerRun(200, func() { resp, err = c.m.Resolve(ctx, c.req) })
		if err != nil || !c.ok(resp) {
			t.Fatalf("%s: %v, %+v", c.name, err, resp)
		}
		t.Logf("%s: %.0f allocs/op", c.name, allocs)
		if allocs > c.max {
			t.Errorf("%s: %.0f allocs/op, ceiling %.0f", c.name, allocs, c.max)
		}
	}
}

// BenchmarkResolve prices one MDM resolve over 2 000 owners behind the
// benchmark's 8-rule shield: a referral of a book split two ways, cycling
// through the owners, and a chaining resolve of a four-way book that the
// cache answers.
func BenchmarkResolve(b *testing.B) {
	ctx := context.Background()
	b.Run("referral/2way", func(b *testing.B) {
		m, reqs := resolveMDM(b, 2000, 2)
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			if _, err := m.Resolve(ctx, reqs[i%len(reqs)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	b.Run("chain_hit/4way", func(b *testing.B) {
		m, reqs := resolveMDM(b, 2000, 4)
		req := chained(b, m, reqs[0])
		b.ReportAllocs()
		for b.Loop() {
			if resp, err := m.Resolve(ctx, req); err != nil || !resp.Cached {
				b.Fatalf("%v, %+v", err, resp)
			}
		}
	})
}
