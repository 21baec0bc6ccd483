package core_test

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gupster/internal/core"
	"gupster/internal/coverage"
	"gupster/internal/faultinject"
	"gupster/internal/policy"
	"gupster/internal/provenance"
	"gupster/internal/resilience"
	"gupster/internal/schema"
	"gupster/internal/store"
	"gupster/internal/token"
	"gupster/internal/wire"
	"gupster/internal/xpath"
)

const hitPresence, hitCalendar = "/user[@id='u']/presence", "/user[@id='u']/calendar"

// hitRig is an MDM with the component cache, the provenance ledger and
// hour-long leases (so only FollowLeases quarantines a store), whose signer
// counts its clock reads: one per token signed. The stores verify with a
// signer of their own over the same key. Two stores behind fault proxies
// each hold one section of u's profile, and a friend's two rules narrow a
// request for the whole profile to two grants, one per store.
type hitRig struct {
	*rig
	signs   atomic.Int64
	proxies []*faultinject.Proxy
}

func newHitRig(t *testing.T) *hitRig {
	t.Helper()
	h := &hitRig{}
	m := core.New(core.Config{
		Schema:       schema.GUP(),
		Signer:       token.NewSigner(key).WithClock(func() time.Time { h.signs.Add(1); return time.Now() }),
		GrantTTL:     time.Minute,
		CacheEntries: 64,
		Provenance:   provenance.NewLedger(64),
		LeaseTTL:     time.Hour,
		Retry:        resilience.Policy{MaxAttempts: 3, PerAttempt: 10 * time.Second, BaseDelay: 5 * time.Millisecond, MaxDelay: 25 * time.Millisecond, Seed: 42},
	})
	h.rig = &rig{t: t, mdm: m, stores: map[string]*store.Server{}, signer: token.NewSigner(key)}
	t.Cleanup(func() {
		m.Close()
		for _, s := range h.stores {
			s.Close()
		}
	})
	for i, sec := range []struct{ store, path, xml string }{
		{"sP", hitPresence, `<presence status="available"/>`},
		{"sC", hitCalendar, `<calendar><event id="e1"><title>standup</title></event></calendar>`},
	} {
		p := h.addProxiedStore(sec.store, int64(31+i))
		h.proxies = append(h.proxies, p)
		h.registerVia(sec.store, p.Addr(), sec.path)
		h.seed(sec.store, "u", sec.path, sec.xml)
		if err := m.PutRule("u", &wire.PutRuleRequest{Owner: "u", Rule: wire.RulePayload{
			ID: "fr-" + sec.store, Path: sec.path, Effect: "permit", Cond: "role=friend",
		}}); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func (h *hitRig) resolve() (*wire.ResolveResponse, error) {
	return h.mdm.Resolve(context.Background(), &wire.ResolveRequest{
		Path:    "/user[@id='u']",
		Owner:   "u",
		Context: policy.Context{Requester: "f", Role: "friend"},
		Verb:    token.VerbFetch,
		Pattern: wire.PatternChaining,
	})
}

// fill resolves once to fill the cache and once more to see it answer.
func (h *hitRig) fill() {
	h.t.Helper()
	for i, wantCached := range []bool{false, true} {
		resp, err := h.resolve()
		if err != nil {
			h.t.Fatalf("resolve %d: %v", i, err)
		}
		if resp.Cached != wantCached || resp.Data == "" {
			h.t.Fatalf("resolve %d: Cached=%v with %d bytes, want Cached=%v with data", i, resp.Cached, len(resp.Data), wantCached)
		}
	}
}

// TestChainingHitKeepsEveryVerdict: the cache is probed only after the
// privacy shield, the coverage lookup and the liveness verdict have run, so
// a component the cache holds is never served past a verdict a miss would
// get; what a hit skips is the signing and the flight.
func TestChainingHitKeepsEveryVerdict(t *testing.T) {
	t.Run("denied once the shield denies", func(t *testing.T) {
		h := newHitRig(t)
		h.fill()
		for _, id := range []string{"fr-sP", "fr-sC"} {
			if err := h.mdm.DeleteRule("u", id); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := h.resolve(); !errors.Is(err, core.ErrDenied) {
			t.Fatalf("err = %v, want ErrDenied", err)
		}
		if hits := h.mdm.Stats.CacheHits.Load(); hits != 1 {
			t.Errorf("cache hits = %d, want 1 (the denied resolve must not count one)", hits)
		}
	})
	t.Run("no coverage once every covering store unregistered", func(t *testing.T) {
		h := newHitRig(t)
		h.fill()
		for store, path := range map[coverage.StoreID]string{"sP": hitPresence, "sC": hitCalendar} {
			if err := h.mdm.Unregister(store, xpath.MustParse(path)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := h.resolve(); !errors.Is(err, core.ErrNoCoverage) {
			t.Fatalf("err = %v, want ErrNoCoverage", err)
		}
	})
	t.Run("degraded while a covering store is quarantined", func(t *testing.T) {
		h := newHitRig(t)
		h.fill()
		h.mdm.FollowLeases([]string{"sC"})
		resp, err := h.resolve()
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Cached || !slices.Equal(resp.Degraded, []string{hitCalendar}) {
			t.Fatalf("Cached=%v Degraded=%v, want a hit degraded by %s", resp.Cached, resp.Degraded, hitCalendar)
		}
		if n := h.mdm.Liveness.DegradedResolves.Load(); n != 1 {
			t.Errorf("degraded resolves = %d, want 1", n)
		}
	})
	t.Run("provenance lists the stores a miss lists", func(t *testing.T) {
		h := newHitRig(t)
		h.fill()
		recs := h.mdm.Provenance().ByOwner("u", 0)
		if len(recs) != 2 {
			t.Fatalf("%d records, want 2 (the miss and the hit)", len(recs))
		}
		miss, hit := recs[0], recs[1]
		if !slices.Equal(miss.Stores, []string{"sC", "sP"}) || !slices.Equal(hit.Stores, miss.Stores) {
			t.Errorf("stores: miss %v, hit %v, want [sC sP] on both", miss.Stores, hit.Stores)
		}
		if hit.Outcome != provenance.Granted || !slices.Equal(hit.Grants, miss.Grants) {
			t.Errorf("hit record %+v, miss record %+v", hit, miss)
		}
	})
	t.Run("concurrent misses share one flight", func(t *testing.T) {
		h := newHitRig(t)
		for _, p := range h.proxies {
			p.SetLatency(300*time.Millisecond, 0)
		}
		const callers = 8
		var wg sync.WaitGroup
		resps := make([]*wire.ResolveResponse, callers)
		errs := make([]error, callers)
		run := func(i int) {
			defer wg.Done()
			resps[i], errs[i] = h.resolve()
		}
		wg.Add(1)
		go run(0)
		waitFor(t, "leader flight", func() bool { return h.mdm.Pipeline().Flights.Load() == 1 })
		for i := 1; i < callers; i++ {
			wg.Add(1)
			go run(i)
		}
		waitFor(t, "followers parked", func() bool { return h.mdm.Pipeline().CoalesceHits.Load() == callers-1 })
		wg.Wait()
		for i := range resps {
			if errs[i] != nil || resps[i].Data == "" || resps[i].Data != resps[0].Data {
				t.Fatalf("caller %d: %v, %d bytes", i, errs[i], len(resps[i].Data))
			}
		}
		if n := h.signs.Load(); n != 2 {
			t.Errorf("%d tokens signed, want 2 (the one flight's)", n)
		}
		if misses := h.mdm.Stats.CacheMisses.Load(); misses != 1 {
			t.Errorf("cache misses = %d, want 1 (one per flight)", misses)
		}
		// The filled entry answers the next resolve without a flight.
		if resp, err := h.resolve(); err != nil || !resp.Cached {
			t.Fatalf("after the flight: %v, %+v", err, resp)
		}
		if ps := h.mdm.Pipeline().Snapshot(); ps.Flights != 1 {
			t.Errorf("flights = %d, want 1: a hit takes none", ps.Flights)
		}
	})
	t.Run("a hit signs no token", func(t *testing.T) {
		h := newHitRig(t)
		h.fill()
		h.signs.Store(0)
		for i := 0; i < 5; i++ {
			if resp, err := h.resolve(); err != nil || !resp.Cached {
				t.Fatalf("hit %d: %v, %+v", i, err, resp)
			}
		}
		if n := h.signs.Load(); n != 0 {
			t.Errorf("five hits signed %d tokens, want 0", n)
		}
		// A change invalidates the entry; the miss after it signs one token
		// per route of its plan.
		h.mdm.HandleChanged(&wire.ChangedNotice{Store: "sP", User: "u", Path: hitPresence, XML: `<presence status="away"/>`, Version: 2})
		if resp, err := h.resolve(); err != nil || resp.Cached {
			t.Fatalf("after invalidation: %v, %+v", err, resp)
		}
		if n := h.signs.Load(); n != 2 {
			t.Errorf("the miss signed %d tokens, want 2", n)
		}
	})
}
