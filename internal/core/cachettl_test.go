package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"gupster/internal/policy"
	"gupster/internal/schema"
	"gupster/internal/store"
	"gupster/internal/token"
	"gupster/internal/wire"
	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

// TestCacheHonoursAdjunctTTL: a chaining answer filled under a schema
// adjunct's CacheTTL (a minute for calendars) is served until the TTL runs
// out, and then fetched afresh, although no change notice came. The cache's
// clock is a field the test moves; nothing sleeps.
func TestCacheHonoursAdjunctTTL(t *testing.T) {
	signer := token.NewSigner([]byte("ttl-key"))
	m := New(Config{
		Schema:       schema.GUP(),
		Signer:       signer,
		GrantTTL:     time.Minute,
		CacheEntries: 64,
		Adjuncts:     schema.GUPAdjuncts(),
	})
	defer m.Close()
	now := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	m.cache.now = func() time.Time { return now }

	eng := store.NewEngine("s1")
	srv := store.NewServer(eng, signer)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cal := xpath.MustParse("/user[@id='u']/calendar")
	put := func(title string) {
		t.Helper()
		if _, err := eng.Put("u", cal, xmltree.MustParse(`<calendar><event id="e"><title>`+title+`</title></event></calendar>`)); err != nil {
			t.Fatal(err)
		}
	}
	put("old")
	if err := m.Register("s1", srv.Addr(), cal); err != nil {
		t.Fatal(err)
	}
	req := &wire.ResolveRequest{
		Path:    cal.String(),
		Context: policy.Context{Requester: "u", Role: "self"},
		Verb:    token.VerbFetch,
		Pattern: wire.PatternChaining,
	}
	resolve := func(wantCached bool, wantTitle string) {
		t.Helper()
		resp, err := m.Resolve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cached != wantCached || !strings.Contains(resp.Data, "<title>"+wantTitle+"</title>") {
			t.Fatalf("at %s: Cached=%v %s, want Cached=%v with title %q", now.Format(time.TimeOnly), resp.Cached, resp.Data, wantCached, wantTitle)
		}
	}

	resolve(false, "old") // fills, to expire at 12:01
	put("new")            // no notice: only the TTL bounds the old answer
	resolve(true, "old")
	now = now.Add(time.Minute - time.Second)
	resolve(true, "old")
	now = now.Add(time.Second)
	resolve(false, "new")
	resolve(true, "new")
	if hits, misses := m.Stats.CacheHits.Load(), m.Stats.CacheMisses.Load(); hits != 3 || misses != 2 {
		t.Errorf("cache hits/misses = %d/%d, want 3/2", hits, misses)
	}
}

// TestCacheTTLExpiry: an expired entry is a miss and leaves as a capacity
// eviction does, not kept for the brownout path; an entry filled without a
// TTL does not expire.
func TestCacheTTLExpiry(t *testing.T) {
	c := newComponentCache(4)
	now := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	c.now = func() time.Time { return now }
	if !c.fill("k", "u", "<x/>", c.gen("u"), time.Minute) || !c.fill("forever", "v", "<y/>", c.gen("v"), 0) {
		t.Fatal("fill refused")
	}
	now = now.Add(time.Minute)
	if _, ok := c.get("k"); ok {
		t.Fatal("expired entry served")
	}
	if _, ok := c.staleGet("k"); ok {
		t.Fatal("expired entry kept as stale")
	}
	if xml, ok := c.get("forever"); !ok || xml != "<y/>" {
		t.Fatalf("entry without TTL: %q, %v", xml, ok)
	}
	checkCacheInvariants(t, c)
}

// TestCacheableGrantsTTL: the TTL of a grant set is the least CacheTTL its
// grants inherit, and a NoCache grant makes the set uncacheable.
func TestCacheableGrantsTTL(t *testing.T) {
	m := New(Config{Adjuncts: schema.GUPAdjuncts(), CacheEntries: 1, Signer: token.NewSigner([]byte("k"))})
	defer m.Close()
	for _, c := range []struct {
		grants    []string
		cacheable bool
		ttl       time.Duration
	}{
		{[]string{"/user[@id='u']/calendar"}, true, time.Minute},
		{[]string{"/user[@id='u']/devices", "/user[@id='u']/calendar", "/user[@id='u']/self"}, true, time.Minute},
		{[]string{"/user[@id='u']/devices"}, true, 5 * time.Minute},
		{[]string{"/user[@id='u']"}, true, 30 * time.Second},
		{[]string{"/user[@id='u']/address-book/item[@type='corporate']"}, true, time.Minute},
		{[]string{"/user[@id='u']/calendar", "/user[@id='u']/presence"}, false, 0},
	} {
		var grants []xpath.Path
		for _, g := range c.grants {
			grants = append(grants, xpath.MustParse(g))
		}
		if ok, ttl := m.cacheableGrants(grants); ok != c.cacheable || ttl != c.ttl {
			t.Errorf("cacheableGrants(%v) = %v, %s; want %v, %s", c.grants, ok, ttl, c.cacheable, c.ttl)
		}
	}
}
