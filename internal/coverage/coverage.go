// Package coverage implements the GUPster server's coverage registry
// (paper §4.3 and §4.5): the mapping between sub-trees of the GUP schema —
// expressed as XPath-fragment expressions — and the data stores that hold
// them. Data stores register and unregister components exactly as Napster
// peers registered music files; client requests are resolved to the set of
// stores whose registrations fully or partially cover the requested path.
//
// The registry keeps one two-level index (user identity, then top-level
// profile section) so that lookup cost is independent of the total number of
// registrations; a linear scan over the same buckets is retained for the E6
// ablation benchmark.
package coverage

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"gupster/internal/xpath"
)

// StoreID identifies a GUP-enabled data store (e.g. "gup.yahoo.com").
type StoreID string

// Match is one registration relevant to a request.
type Match struct {
	Store StoreID
	// Path is the registered coverage path.
	Path xpath.Path
	// Rel says whether the registration covers the whole request or only a
	// piece of it.
	Rel xpath.CoverRelation
}

// Registration pairs a coverage path with the store that holds it. Paths
// follow the paper's convention of embedding the user identity as a
// predicate on the first step: /user[@id='arnaud']/address-book.
type Registration struct {
	Path  xpath.Path
	Store StoreID
}

var (
	// ErrNotRegistered is returned by Unregister when no matching
	// registration exists.
	ErrNotRegistered = errors.New("coverage: not registered")
	// ErrBadPath rejects structurally unusable coverage paths.
	ErrBadPath = errors.New("coverage: unusable path")
)

// UserOf extracts the user identity from a coverage or request path: the
// value of the id-attribute equality predicate on the first step. The second
// result is false for paths that do not pin a single user.
func UserOf(p xpath.Path) (string, bool) {
	if len(p.Steps) == 0 {
		return "", false
	}
	for _, pred := range p.Steps[0].Preds {
		if pred.Attr == "id" && pred.HasValue {
			return pred.Value, true
		}
	}
	return "", false
}

// UserOfPath is UserOf for an unparsed path; an unparsable path pins no
// user.
func UserOfPath(path string) (string, bool) {
	p, err := xpath.Parse(path)
	if err != nil {
		return "", false
	}
	return UserOf(p)
}

// sectionOf returns the top-level profile section a path addresses (the
// element name of its second step), or "*" when the path stops at the user
// element or uses a wildcard there.
func sectionOf(p xpath.Path) string {
	if len(p.Steps) < 2 || p.Steps[1].Name == "*" {
		return "*"
	}
	return p.Steps[1].Name
}

type entry struct {
	path    xpath.Path
	pathStr string
	store   StoreID
	user    string
	section string
}

// Registry is the coverage store. The zero value is not usable; call New.
// All methods are safe for concurrent use.
type Registry struct {
	mu sync.RWMutex
	// byUser[user][section] → entries; user "" holds registrations that do
	// not pin a user and is consulted on every lookup.
	byUser map[string]map[string][]*entry
	count  int
	// perStore counts live registrations per store, so callers can tell
	// when a store's last registration disappears (address and lease
	// cleanup) without scanning.
	perStore map[StoreID]int
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		byUser:   make(map[string]map[string][]*entry),
		perStore: make(map[StoreID]int),
	}
}

// CheckPath reports whether Register would refuse path.
func CheckPath(path xpath.Path) error {
	if len(path.Steps) == 0 {
		return fmt.Errorf("%w: empty path", ErrBadPath)
	}
	if path.Empty() {
		return fmt.Errorf("%w: %s matches nothing", ErrBadPath, path)
	}
	return nil
}

// Register records that store holds the subtree at path. Registering the
// same (path, store) pair twice is idempotent.
func (r *Registry) Register(path xpath.Path, store StoreID) error {
	if err := CheckPath(path); err != nil {
		return err
	}
	user, _ := UserOf(path)
	section := sectionOf(path)
	e := &entry{path: path, pathStr: path.String(), store: store, user: user, section: section}

	r.mu.Lock()
	defer r.mu.Unlock()
	bucket := r.byUser[user]
	if bucket == nil {
		bucket = make(map[string][]*entry)
		r.byUser[user] = bucket
	}
	for _, ex := range bucket[section] {
		if ex.store == store && ex.pathStr == e.pathStr {
			return nil // idempotent
		}
	}
	bucket[section] = append(bucket[section], e)
	r.count++
	r.perStore[store]++
	return nil
}

// Registered reports whether the exact (path, store) registration exists,
// that is, whether Unregister would remove one.
func (r *Registry) Registered(path xpath.Path, store StoreID) bool {
	key := path.String()
	user, _ := UserOf(path)
	section := sectionOf(path)
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, e := range r.byUser[user][section] {
		if e.store == store && e.pathStr == key {
			return true
		}
	}
	return false
}

// Unregister removes a prior registration; it touches only the
// registration's bucket.
func (r *Registry) Unregister(path xpath.Path, store StoreID) error {
	key := path.String()
	user, _ := UserOf(path)
	section := sectionOf(path)

	r.mu.Lock()
	defer r.mu.Unlock()
	bucket := r.byUser[user]
	if bucket == nil {
		return ErrNotRegistered
	}
	list := bucket[section]
	for i, e := range list {
		if e.store == store && e.pathStr == key {
			bucket[section] = append(list[:i], list[i+1:]...)
			r.count--
			r.decStore(store)
			return nil
		}
	}
	return ErrNotRegistered
}

func (r *Registry) decStore(store StoreID) {
	if n := r.perStore[store]; n <= 1 {
		delete(r.perStore, store)
	} else {
		r.perStore[store] = n - 1
	}
}

// StoreCount returns the number of live registrations a store holds; 0
// means the directory has forgotten the store entirely.
func (r *Registry) StoreCount(store StoreID) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.perStore[store]
}

// Lookup returns all registrations relevant to the request, full covers
// first, then partials; within each class results are ordered by store then
// path for determinism. The index narrows the scan to the request's user and
// section buckets (plus the unpinned buckets). Every bucket is consulted at
// most once, and a registration lives in one bucket only, so no
// registration is answered twice.
func (r *Registry) Lookup(q xpath.Path) []Match {
	r.mu.RLock()
	defer r.mu.RUnlock()

	user, pinned := UserOf(q)
	section := sectionOf(q)

	var local [16]hit
	hits := local[:0]
	collect := func(bucket map[string][]*entry) {
		if section == "*" {
			// Request spans sections: consult every bucket.
			for _, list := range bucket {
				hits = classify(hits, list, q)
			}
			return
		}
		hits = classify(hits, bucket[section], q)
		hits = classify(hits, bucket["*"], q)
	}
	if pinned {
		collect(r.byUser[user])
		if user != "" {
			// Registrations not pinned to a user; a request pinned to
			// @id='' has just consulted them as its own.
			collect(r.byUser[""])
		}
	} else {
		// Request does not pin a user: all buckets are candidates.
		for _, bucket := range r.byUser {
			collect(bucket)
		}
	}
	return matches(hits)
}

// LinearLookup evaluates the request against every registration without
// using the index. It exists to quantify what the index buys (benchmark E6).
func (r *Registry) LinearLookup(q xpath.Path) []Match {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return matches(classify(nil, r.entriesLocked(), q))
}

// entriesLocked lists every registration, bucket by bucket. Caller holds
// r.mu.
func (r *Registry) entriesLocked() []*entry {
	out := make([]*entry, 0, r.count)
	for _, bucket := range r.byUser {
		for _, list := range bucket {
			out = append(out, list...)
		}
	}
	return out
}

// hit is a registration relevant to a request, with how it covers it.
type hit struct {
	e   *entry
	rel xpath.CoverRelation
}

// classify appends to hits the entries that cover q fully or partly.
func classify(hits []hit, entries []*entry, q xpath.Path) []hit {
	for _, e := range entries {
		if rel := xpath.Covers(e.path, q); rel != xpath.CoverNone {
			hits = append(hits, hit{e, rel})
		}
	}
	return hits
}

// matches sorts hits, full covers before partial ones and each class by
// compareEntries, and returns them as Matches: a lookup's one allocation.
func matches(hits []hit) []Match {
	if len(hits) == 0 {
		return nil
	}
	slices.SortFunc(hits, func(a, b hit) int {
		if a.rel != b.rel {
			return cmp.Compare(a.rel, b.rel) // CoverFull < CoverPartial
		}
		return compareEntries(a.e, b.e)
	})
	out := make([]Match, len(hits))
	for i, h := range hits {
		out[i] = Match{Store: h.e.store, Path: h.e.path, Rel: h.rel}
	}
	return out
}

// compareEntries orders registrations by store, then by rendered path —
// the string each entry rendered once, at registration.
func compareEntries(a, b *entry) int {
	if a.store != b.store {
		return strings.Compare(string(a.store), string(b.store))
	}
	return strings.Compare(a.pathStr, b.pathStr)
}

// Len returns the number of live registrations.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.count
}

// Snapshot returns all registrations, ordered by store, then by rendered
// path; the journal's checkpoint and the coverage dumps read it. The order
// compares the strings each entry rendered at registration.
func (r *Registry) Snapshot() []Registration {
	r.mu.RLock()
	sorted := r.entriesLocked()
	r.mu.RUnlock()
	slices.SortFunc(sorted, compareEntries)
	out := make([]Registration, len(sorted))
	for i, e := range sorted {
		out[i] = Registration{Path: e.path, Store: e.store}
	}
	return out
}

// Replace makes the registry hold exactly fresh's registrations, in one
// step under its lock: a concurrent Lookup sees the old registrations or
// the new ones, never a mix. The registry takes fresh's index over, so
// fresh must not be used afterwards.
func (r *Registry) Replace(fresh *Registry) {
	r.mu.Lock()
	r.byUser, r.count, r.perStore = fresh.byUser, fresh.count, fresh.perStore
	r.mu.Unlock()
}
