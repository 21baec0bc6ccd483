package core

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"
)

// componentCache is the MDM's LRU cache of merged components (§5.2:
// "GUPster should probably also offer some caching to make the access to
// user profile component faster", §5.3 "GUPster can also offer some caching
// services"). Entries are invalidated wholesale per owner when any of the
// owner's components changes — coarse, but correct without tracking which
// registrations fed which merge. An invalidated entry stays where it is,
// marked stale: get never serves it, staleGet (the brownout path) does, a
// fresh fill of its key overwrites it, and the LRU drops it like any other
// entry. An entry filled under a schema adjunct's CacheTTL also expires: a
// probe past its expiry is a miss.
type componentCache struct {
	mu      sync.Mutex
	cap     int
	now     func() time.Time         // the clock expiries are read on
	lru     *list.List               // front = most recent; values are *cacheEntry
	entries map[string]*list.Element // key → element
	byOwner map[string]map[string]bool
	// gens counts invalidations per stripe of owners. A fill that started
	// before an invalidation must not land after it (the flight would
	// reinstate data the store just declared stale), so a filler reads gen
	// before fetching and fill refuses the answer if the owner's stripe has
	// moved since. Owners that share a stripe refuse each other's
	// concurrent fills — a lost fill, never a stale entry.
	seed maphash.Seed
	gens [256]atomic.Uint64
}

type cacheEntry struct {
	key     string
	owner   string
	xml     string
	expires time.Time // zero: until evicted or invalidated
	stale   bool      // invalidated: served only by staleGet
}

func newComponentCache(capacity int) *componentCache {
	return &componentCache{
		cap:     capacity,
		now:     time.Now,
		lru:     list.New(),
		entries: make(map[string]*list.Element),
		byOwner: make(map[string]map[string]bool),
		seed:    maphash.MakeSeed(),
	}
}

// stripe is the index of owner's generation in gens.
func (c *componentCache) stripe(owner string) int {
	return int(maphash.String(c.seed, owner) % uint64(len(c.gens)))
}

// gen is owner's invalidation generation, to be read before fetching the
// answer that fill is later given.
func (c *componentCache) gen(owner string) uint64 {
	return c.gens[c.stripe(owner)].Load()
}

// fill stores xml under key only when no invalidation reached owner's
// stripe since gen was read; it reports whether the entry was stored. A
// positive ttl makes the entry expire that long after it is stored.
func (c *componentCache) fill(key, owner, xml string, gen uint64, ttl time.Duration) bool {
	g := &c.gens[c.stripe(owner)]
	c.mu.Lock()
	defer c.mu.Unlock()
	if g.Load() != gen {
		return false
	}
	var expires time.Time
	if ttl > 0 {
		expires = c.now().Add(ttl)
	}
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		e.xml, e.expires, e.stale = xml, expires, false
		c.lru.MoveToFront(el)
		return true
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, owner: owner, xml: xml, expires: expires})
	keys := c.byOwner[owner]
	if keys == nil {
		keys = make(map[string]bool)
		c.byOwner[owner] = keys
	}
	keys[key] = true
	for c.lru.Len() > c.cap {
		c.evict(c.lru.Back())
	}
	return true
}

// get probes the cache. A stale entry is a miss. An expired entry is a
// miss too, and is dropped as a capacity eviction drops an entry.
func (c *componentCache) get(key string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return "", false
	}
	e := el.Value.(*cacheEntry)
	if e.stale {
		return "", false
	}
	if !e.expires.IsZero() && !c.now().Before(e.expires) {
		c.evict(el)
		return "", false
	}
	c.lru.MoveToFront(el)
	return e.xml, true
}

// staleGet serves whatever the cache holds for key, stale or not. Only the
// brownout path reads it: under sustained overload a possibly outdated
// answer on the call-setup path beats a shed.
func (c *componentCache) staleGet(key string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return "", false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).xml, true
}

// evict removes an element; caller holds the lock.
func (c *componentCache) evict(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	keys := c.byOwner[e.owner]
	delete(keys, e.key)
	if len(keys) == 0 {
		delete(c.byOwner, e.owner)
	}
}

// reset empties the cache and advances every generation, so a fetch that
// started against the pre-reset directory cannot land its answer
// afterwards. Used when the directory is discarded and rebuilt (a follower
// installing a leader snapshot): the cached merges, stale ones included,
// derive from the diverged history and must not survive it.
func (c *componentCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.gens {
		c.gens[i].Add(1)
	}
	c.lru.Init()
	clear(c.entries)
	clear(c.byOwner)
}

// invalidateOwner marks every entry of an owner stale (a component
// changed) and advances the owner's generation so in-flight fills cannot
// land, both in one critical section.
func (c *componentCache) invalidateOwner(owner string) {
	g := &c.gens[c.stripe(owner)]
	c.mu.Lock()
	defer c.mu.Unlock()
	g.Add(1)
	for key := range c.byOwner[owner] {
		c.entries[key].Value.(*cacheEntry).stale = true
	}
}
