package core

import (
	"container/list"
	"sync"
	"time"
)

// componentCache is the MDM's LRU cache of merged components (§5.2:
// "GUPster should probably also offer some caching to make the access to
// user profile component faster", §5.3 "GUPster can also offer some caching
// services"). Entries are invalidated wholesale per owner when any of the
// owner's components changes — coarse, but correct without tracking which
// registrations fed which merge. An entry filled under a schema adjunct's
// CacheTTL also expires: a probe past its expiry is a miss.
type componentCache struct {
	mu      sync.Mutex
	cap     int
	now     func() time.Time         // the clock expiries are read on
	lru     *list.List               // front = most recent; values are *cacheEntry
	entries map[string]*list.Element // key → element
	byOwner map[string]map[string]bool
	// gens counts invalidations per owner. A fill that started before an
	// invalidation must not land after it (the flight would reinstate data
	// the store just declared stale), so fillers snapshot beginFill before
	// fetching and insert through putIfFresh. An entry stays in gens only
	// while the owner has cached entries or in-flight fills — otherwise the
	// map would grow by one entry per owner ever invalidated, forever.
	gens map[string]uint64
	// fills refcounts in-flight fills per owner; a registered fill pins the
	// owner's gens entry so a stale fill can never land against a pruned
	// (hence zero, hence "fresh"-looking) generation.
	fills map[string]int
	// The stale side-buffer holds the last known value of entries evicted
	// by invalidation (not by capacity — cold entries are just cold). The
	// live maps above never serve it; only staleGet does, and only the
	// brownout path calls staleGet: under sustained overload a possibly
	// outdated answer on the call-setup path beats a shed. A fresh insert
	// for the same key supersedes the stale copy. Bounded by the same
	// capacity as the live cache.
	staleLRU *list.List
	stale    map[string]*list.Element
}

type cacheEntry struct {
	key     string
	owner   string
	xml     string
	expires time.Time // zero: until evicted or invalidated
}

func newComponentCache(capacity int) *componentCache {
	return &componentCache{
		cap:      capacity,
		now:      time.Now,
		lru:      list.New(),
		entries:  make(map[string]*list.Element),
		byOwner:  make(map[string]map[string]bool),
		gens:     make(map[string]uint64),
		fills:    make(map[string]int),
		staleLRU: list.New(),
		stale:    make(map[string]*list.Element),
	}
}

// beginFill snapshots the owner's invalidation generation and registers an
// in-flight fill; the caller must pair it with endFill. While at least one
// fill is registered the owner's generation cannot be pruned.
func (c *componentCache) beginFill(owner string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fills[owner]++
	return c.gens[owner]
}

// endFill concludes a fill begun by beginFill, pruning the owner's
// generation when nothing keeps it alive anymore.
func (c *componentCache) endFill(owner string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.fills[owner]; n > 1 {
		c.fills[owner] = n - 1
		return
	}
	delete(c.fills, owner)
	c.maybePruneGen(owner)
}

// maybePruneGen drops the owner's generation counter once neither cached
// entries nor in-flight fills reference it. Resetting to zero is safe
// exactly because no fill holds a snapshot: the next beginFill re-reads
// from zero and stays consistent. Caller holds the lock.
func (c *componentCache) maybePruneGen(owner string) {
	if c.fills[owner] == 0 && len(c.byOwner[owner]) == 0 {
		delete(c.gens, owner)
	}
}

// fill inserts only when no invalidation for owner happened since gen was
// snapshotted by beginFill; it reports whether the entry was stored. A
// positive ttl makes the entry expire that long after it is stored.
func (c *componentCache) fill(key, owner, xml string, gen uint64, ttl time.Duration) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gens[owner] != gen {
		return false
	}
	c.insert(key, owner, xml, c.expiry(ttl))
	return true
}

// putIfFresh is fill for an entry that does not expire.
func (c *componentCache) putIfFresh(key, owner, xml string, gen uint64) bool {
	return c.fill(key, owner, xml, gen, 0)
}

// put inserts an entry that does not expire, whatever the generation.
func (c *componentCache) put(key, owner, xml string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insert(key, owner, xml, time.Time{})
}

// expiry is when an entry stored now with ttl expires; zero for no ttl.
// Caller holds the lock.
func (c *componentCache) expiry(ttl time.Duration) time.Time {
	if ttl <= 0 {
		return time.Time{}
	}
	return c.now().Add(ttl)
}

// get probes the cache. An expired entry is a miss, and is dropped as a
// capacity eviction drops an entry: it is not parked as stale.
func (c *componentCache) get(key string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return "", false
	}
	e := el.Value.(*cacheEntry)
	if !e.expires.IsZero() && !c.now().Before(e.expires) {
		c.evict(el)
		return "", false
	}
	c.lru.MoveToFront(el)
	return e.xml, true
}

// staleGet serves the side-buffer: the last value an invalidation evicted
// for key, if any. Only the brownout path reads it.
func (c *componentCache) staleGet(key string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// A live entry outranks its stale shadow (it shouldn't coexist with
	// one, but serve the freshest thing we have regardless).
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*cacheEntry).xml, true
	}
	el, ok := c.stale[key]
	if !ok {
		return "", false
	}
	c.staleLRU.MoveToFront(el)
	return el.Value.(*cacheEntry).xml, true
}

// staleInsert parks an invalidated entry in the side-buffer; caller holds
// the lock.
func (c *componentCache) staleInsert(key, owner, xml string) {
	if el, ok := c.stale[key]; ok {
		el.Value.(*cacheEntry).xml = xml
		c.staleLRU.MoveToFront(el)
		return
	}
	el := c.staleLRU.PushFront(&cacheEntry{key: key, owner: owner, xml: xml})
	c.stale[key] = el
	for c.staleLRU.Len() > c.cap {
		back := c.staleLRU.Back()
		delete(c.stale, back.Value.(*cacheEntry).key)
		c.staleLRU.Remove(back)
	}
}

// insert adds or refreshes an entry; caller holds the lock.
func (c *componentCache) insert(key, owner, xml string, expires time.Time) {
	// Fresh data supersedes any parked stale copy.
	if el, ok := c.stale[key]; ok {
		delete(c.stale, key)
		c.staleLRU.Remove(el)
	}
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		e.xml, e.expires = xml, expires
		c.lru.MoveToFront(el)
		return
	}
	el := c.lru.PushFront(&cacheEntry{key: key, owner: owner, xml: xml, expires: expires})
	c.entries[key] = el
	keys := c.byOwner[owner]
	if keys == nil {
		keys = make(map[string]bool)
		c.byOwner[owner] = keys
	}
	keys[key] = true
	for c.lru.Len() > c.cap {
		c.evict(c.lru.Back())
	}
}

// evict removes an element; caller holds the lock.
func (c *componentCache) evict(el *list.Element) {
	if el == nil {
		return
	}
	e := el.Value.(*cacheEntry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	if keys := c.byOwner[e.owner]; keys != nil {
		delete(keys, e.key)
		if len(keys) == 0 {
			delete(c.byOwner, e.owner)
			c.maybePruneGen(e.owner)
		}
	}
}

// reset empties the cache wholesale: live entries, the stale side-buffer,
// and — critically — every owner generation with a fill in flight is
// advanced so a fetch that started against the pre-reset directory cannot
// land its answer afterwards. Used when the directory is discarded and
// rebuilt (a follower installing a leader snapshot): both the cached
// merges and the parked brownout answers derive from the diverged
// history and must not survive it.
func (c *componentCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Init()
	c.entries = make(map[string]*list.Element)
	c.byOwner = make(map[string]map[string]bool)
	c.staleLRU.Init()
	c.stale = make(map[string]*list.Element)
	// Owners with in-flight fills keep a (bumped) generation so putIfFresh
	// rejects their stale landings; every other generation is prunable now
	// that no entry references it.
	for owner := range c.gens {
		if c.fills[owner] > 0 {
			c.gens[owner]++
		} else {
			delete(c.gens, owner)
		}
	}
	for owner := range c.fills {
		if _, ok := c.gens[owner]; !ok {
			// A fill whose owner had no generation yet snapshotted zero;
			// give the owner a non-zero generation so that landing fails too.
			c.gens[owner] = 1
		}
	}
}

// invalidateOwner drops every entry for an owner (a component changed)
// and advances the owner's generation so in-flight fills cannot land. With
// no fills in flight the bumped generation is immediately prunable: every
// entry is gone, and the next fill snapshots whatever it finds.
func (c *componentCache) invalidateOwner(owner string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gens[owner]++
	for key := range c.byOwner[owner] {
		if el, ok := c.entries[key]; ok {
			// Park the outgoing value in the stale side-buffer before
			// evicting: brownout mode may serve it when fetching fresh data
			// is exactly what the overloaded server cannot afford.
			e := el.Value.(*cacheEntry)
			c.staleInsert(e.key, e.owner, e.xml)
			c.evict(el)
		}
	}
	c.maybePruneGen(owner)
}
