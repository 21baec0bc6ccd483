package core

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// checkCacheInvariants verifies the structural invariants that tie the
// LRU, the key index and the per-owner index together. Callers must not
// hold the lock.
func checkCacheInvariants(t *testing.T, c *componentCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lru.Len() != len(c.entries) {
		t.Fatalf("lru has %d elements, entries map has %d", c.lru.Len(), len(c.entries))
	}
	if c.lru.Len() > c.cap {
		t.Fatalf("cache holds %d entries, cap is %d", c.lru.Len(), c.cap)
	}
	// Every LRU element is indexed, and byOwner mirrors the entries exactly.
	ownersSeen := map[string]map[string]bool{}
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		if c.entries[e.key] != el {
			t.Fatalf("entry %q not indexed to its own element", e.key)
		}
		if !c.byOwner[e.owner][e.key] {
			t.Fatalf("entry %q missing from byOwner[%q]", e.key, e.owner)
		}
		if ownersSeen[e.owner] == nil {
			ownersSeen[e.owner] = map[string]bool{}
		}
		ownersSeen[e.owner][e.key] = true
	}
	for owner, keys := range c.byOwner {
		if len(keys) == 0 {
			t.Fatalf("byOwner[%q] retained empty set", owner)
		}
		for key := range keys {
			if !ownersSeen[owner][key] {
				t.Fatalf("byOwner[%q] lists %q which is not cached", owner, key)
			}
		}
	}
}

// cachePut fills key for owner at the owner's current generation.
func cachePut(t *testing.T, c *componentCache, key, owner, xml string) {
	t.Helper()
	if !c.fill(key, owner, xml, c.gen(owner), 0) {
		t.Fatalf("fill of %q refused with no invalidation in between", key)
	}
}

// Churning fills and invalidations across an unbounded owner population
// keeps the cache within its capacity and its indexes consistent: stale
// entries share the LRU with live ones and leave it the same way.
func TestCacheChurnStaysBounded(t *testing.T) {
	c := newComponentCache(8)
	for i := 0; i < 10000; i++ {
		owner := fmt.Sprintf("u%d", i)
		cachePut(t, c, owner+"\x00a", owner, "<x/>")
		if i%3 == 0 {
			cachePut(t, c, owner+"\x00b", owner, "<y/>")
		}
		if i%2 == 0 {
			c.invalidateOwner(owner)
		}
		if i%10 == 0 {
			c.invalidateOwner(fmt.Sprintf("ghost%d", i)) // never cached
		}
		if i%997 == 0 {
			checkCacheInvariants(t, c)
		}
	}
	checkCacheInvariants(t, c)
	c.mu.Lock()
	n, owners := c.lru.Len(), len(c.byOwner)
	c.mu.Unlock()
	if n != 8 || owners > 8 {
		t.Fatalf("cache holds %d entries of %d owners, want 8 entries", n, owners)
	}
}

// A fill that began before an invalidation must not land after it.
func TestCacheStaleFillCannotLand(t *testing.T) {
	c := newComponentCache(8)
	gen := c.gen("u")
	c.invalidateOwner("u")
	if c.fill("k", "u", "<stale/>", gen, 0) {
		t.Fatal("stale fill landed after an invalidation")
	}
	if _, ok := c.get("k"); ok {
		t.Fatal("stale data is visible")
	}
	checkCacheInvariants(t, c)

	// A fresh fill (its generation read after the invalidation) lands fine.
	cachePut(t, c, "k", "u", "<fresh/>")
	if xml, ok := c.get("k"); !ok || xml != "<fresh/>" {
		t.Fatalf("get = %q, %v; want the fresh fill", xml, ok)
	}
	checkCacheInvariants(t, c)
}

// An invalidation marks the owner's entries stale where they are: get
// misses them, staleGet serves them, and a fresh fill of the key
// overwrites the stale copy.
func TestCacheInvalidationMarksStaleInPlace(t *testing.T) {
	c := newComponentCache(8)
	cachePut(t, c, "u\x00a", "u", "<old/>")
	cachePut(t, c, "v\x00a", "v", "<other/>")
	c.invalidateOwner("u")
	if _, ok := c.get("u\x00a"); ok {
		t.Fatal("get served an invalidated entry")
	}
	if xml, ok := c.staleGet("u\x00a"); !ok || xml != "<old/>" {
		t.Fatalf("staleGet = %q, %v; want the invalidated value", xml, ok)
	}
	if xml, ok := c.get("v\x00a"); !ok || xml != "<other/>" {
		t.Fatalf("another owner's entry: %q, %v", xml, ok)
	}
	cachePut(t, c, "u\x00a", "u", "<new/>")
	if xml, ok := c.get("u\x00a"); !ok || xml != "<new/>" {
		t.Fatalf("get after a fresh fill = %q, %v", xml, ok)
	}
	if xml, _ := c.staleGet("u\x00a"); xml != "<new/>" {
		t.Fatalf("staleGet after a fresh fill = %q, want the fresh value", xml)
	}
	checkCacheInvariants(t, c)
}

// Two owners in one stripe: invalidating one refuses the other's in-flight
// fill, but leaves the other's cached entries fresh, and the other's next
// fill lands.
func TestCacheStripeCollision(t *testing.T) {
	c := newComponentCache(8)
	a, b := "a0", ""
	for i := 0; b == ""; i++ {
		if o := fmt.Sprintf("b%d", i); c.stripe(o) == c.stripe(a) {
			b = o
		}
	}
	cachePut(t, c, b+"\x00cached", b, "<b/>")
	inflight := c.gen(b)
	c.invalidateOwner(a)
	if c.fill(b+"\x00flight", b, "<b/>", inflight, 0) {
		t.Fatal("a fill begun before its stripe moved landed")
	}
	if xml, ok := c.get(b + "\x00cached"); !ok || xml != "<b/>" {
		t.Fatalf("a stripe neighbour's invalidation hid %q's entry: %q, %v", b, xml, ok)
	}
	cachePut(t, c, b+"\x00flight", b, "<b/>")
	checkCacheInvariants(t, c)
}

// Fillers read gen without the lock while invalidations bump it under the
// lock. Each owner's data carries a version the invalidator raises before
// it invalidates: once invalidation k has returned, a get may only serve
// version k or later.
func TestCacheConcurrentFillsNeverServeOlderThanAnInvalidation(t *testing.T) {
	c := newComponentCache(4)
	const rounds = 2000
	var wg sync.WaitGroup
	for o := 0; o < 4; o++ {
		owner := fmt.Sprintf("o%d", o)
		key := owner + "\x00k"
		var version, invalidated atomic.Uint64
		var stop atomic.Bool
		wg.Add(3)
		go func() { // the store: a change, then its notice
			defer wg.Done()
			defer stop.Store(true)
			for i := 0; i < rounds; i++ {
				v := version.Add(1)
				c.invalidateOwner(owner)
				invalidated.Store(v)
			}
		}()
		go func() { // a chaining miss: generation, fetch, fill
			defer wg.Done()
			for !stop.Load() {
				gen := c.gen(owner)
				c.fill(key, owner, strconv.FormatUint(version.Load(), 10), gen, 0)
			}
		}()
		go func() { // a probe
			defer wg.Done()
			for !stop.Load() {
				floor := invalidated.Load()
				if xml, ok := c.get(key); ok {
					if v, _ := strconv.ParseUint(xml, 10, 64); v < floor {
						t.Errorf("%s: served version %d after invalidation %d returned", owner, v, floor)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	checkCacheInvariants(t, c)
}

// Property test: the invariants hold under an arbitrary interleaving of
// fills, gets, invalidations, and (possibly stale) fill cycles, and an
// owner's keys never hit after its invalidation.
func TestCachePropertyRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := newComponentCache(16)
	owners := []string{"a", "b", "c", "d", "e"}
	keyOf := func(owner string, i int) string { return fmt.Sprintf("%s\x00%d", owner, i) }
	type flight struct {
		owner string
		gen   uint64
	}
	var inflight []flight
	for i := 0; i < 5000; i++ {
		owner := owners[rng.Intn(len(owners))]
		key := keyOf(owner, rng.Intn(10))
		switch rng.Intn(6) {
		case 0:
			cachePut(t, c, key, owner, "<x/>")
		case 1:
			c.get(key)
		case 2:
			c.invalidateOwner(owner)
		case 3:
			inflight = append(inflight, flight{owner, c.gen(owner)})
		case 4:
			if len(inflight) > 0 {
				j := rng.Intn(len(inflight))
				f := inflight[j]
				c.fill(keyOf(f.owner, rng.Intn(10)), f.owner, "<x/>", f.gen, 0)
				inflight = append(inflight[:j], inflight[j+1:]...)
			}
		case 5:
			// An owner's entries are never served after its invalidation,
			// and fills begun before it cannot bring them back.
			c.invalidateOwner(owner)
			for _, f := range inflight {
				if f.owner == owner {
					c.fill(keyOf(owner, rng.Intn(10)), owner, "<x/>", f.gen, 0)
				}
			}
			for k := 0; k < 10; k++ {
				if _, ok := c.get(keyOf(owner, k)); ok {
					t.Fatalf("owner %q: key %d hit after invalidation", owner, k)
				}
			}
		}
		if i%97 == 0 {
			checkCacheInvariants(t, c)
		}
	}
	checkCacheInvariants(t, c)
}

// Regression for the reset gap: discarding the directory (a follower
// installing a leader snapshot) must empty the cache — live and stale
// entries — and must fence in-flight fills, even fills whose owner had
// never been invalidated.
func TestCacheResetBlocksStaleFills(t *testing.T) {
	c := newComponentCache(8)
	cachePut(t, c, "k1", "u1", "<old/>")
	c.invalidateOwner("u1") // k1 stays, marked stale
	cachePut(t, c, "k3", "u3", "<live/>")

	// A fill that began before the reset read u2's generation.
	gen := c.gen("u2")

	c.reset()

	if _, ok := c.get("k3"); ok {
		t.Fatal("reset kept a live entry")
	}
	if _, ok := c.staleGet("k1"); ok {
		t.Fatal("reset kept a stale entry")
	}
	if c.fill("k2", "u2", "<stale/>", gen, 0) {
		t.Fatal("a fill begun before reset landed its answer afterwards")
	}
	checkCacheInvariants(t, c)
}
