package core

import (
	"context"
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

// TestResolveAllocs is the MDM row of the resolve path's allocation gate,
// on the MDM as gupsterd ships it (schema, adjuncts, provenance ledger,
// admission) and the benchmark's book split four ways: a referral signs
// four tokens, a chaining resolve the cache answers signs none.
func TestResolveAllocs(t *testing.T) {
	if racetag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	m := New(Config{
		Schema:       schema.GUP(),
		Signer:       token.NewSigner([]byte("allocs-key")),
		GrantTTL:     30 * time.Second,
		CacheEntries: 64,
		Adjuncts:     schema.GUPAdjuncts(),
		Provenance:   provenance.NewLedger(4096),
		Overload:     overload.Config{MaxConcurrency: 64},
	})
	defer m.Close()
	const owner = "u00000"
	for i, kind := range []string{"personal", "corporate", "family", "other"} {
		st := coverage.StoreID("s" + string(rune('0'+i)) + ".gup.example")
		p := xpath.MustParse("/user[@id='" + owner + "']/address-book/item[@type='" + kind + "']")
		if err := m.Register(st, "127.0.0.1:1", p); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.PAP.PutRule(owner, policy.Rule{
		ID: "friends-book", Path: xpath.MustParse("/user[@id='" + owner + "']/address-book"),
		Cond: policy.RoleIs("friend"), Effect: policy.Permit,
	}); err != nil {
		t.Fatal(err)
	}
	rctx := policy.Context{Requester: "friend-1", Role: "friend", Purpose: policy.PurposeQuery}
	referral := &wire.ResolveRequest{Path: "/user[@id='" + owner + "']/address-book", Context: rctx, Verb: token.VerbFetch}
	chained := *referral
	chained.Pattern = wire.PatternChaining
	grants := m.PDP.Decide(owner, xpath.MustParse(referral.Path), rctx).Grants
	m.cache.put(cacheKey(owner, grants), owner, "<address-book/>")

	ctx := context.Background()
	for _, c := range []struct {
		name string
		max  float64
		req  *wire.ResolveRequest
		ok   func(*wire.ResolveResponse) bool
	}{
		{"referral", 90, referral, func(r *wire.ResolveResponse) bool {
			return len(r.Alternatives) == 1 && len(r.Alternatives[0].Referrals) == 4
		}},
		{"chaining hit", 100, &chained, func(r *wire.ResolveResponse) bool { return r.Cached }},
	} {
		var resp *wire.ResolveResponse
		var err error
		allocs := testing.AllocsPerRun(200, func() { resp, err = m.Resolve(ctx, c.req) })
		if err != nil || !c.ok(resp) {
			t.Fatalf("%s: %v, %+v", c.name, err, resp)
		}
		t.Logf("%s: %.0f allocs/op", c.name, allocs)
		if allocs > c.max {
			t.Errorf("%s: %.0f allocs/op, ceiling %.0f", c.name, allocs, c.max)
		}
	}
}
