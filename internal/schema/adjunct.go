package schema

import (
	"sync"
	"time"

	"gupster/internal/xpath"
)

// This file implements the Schema Adjunct Framework the paper leans on
// (requirement 8 asks to "expand on the traditional meta-data
// representations … to include information about data placement, rules for
// data reconciliation, etc."; the conclusion asks "how should the Schema
// Adjunct Framework be applied"): metadata attached to schema subtrees,
// *beside* the structural schema, carrying the framework-level knowledge
// GUPster components need — reconciliation defaults, placement hints,
// sensitivity classes and cache lifetimes.

// Adjunct is the framework metadata for one schema subtree. Zero-valued
// fields inherit from shallower annotations at Lookup time.
type Adjunct struct {
	// ReconcilePolicy names the default conflict policy for syncs of the
	// subtree: "server-wins", "client-wins" or "merge".
	ReconcilePolicy string
	// PlacementHint suggests the natural home of the component
	// ("carrier", "portal", "enterprise", "device", "bank").
	PlacementHint string
	// Sensitivity classifies the data ("public", "personal", "financial");
	// provisioning UIs use it to pick default shield strictness.
	Sensitivity string
	// CacheTTL bounds how long MDM caches may serve the component; 0
	// inherits. Use NoCache for an explicit "never cache".
	CacheTTL time.Duration
	// NoCache marks volatile or sensitive subtrees that must never be
	// served from a cache; it overrides any inherited CacheTTL.
	NoCache bool
}

// merged fills a's unset fields from b (a is more specific than b).
func (a Adjunct) merged(b Adjunct) Adjunct {
	if a.ReconcilePolicy == "" {
		a.ReconcilePolicy = b.ReconcilePolicy
	}
	if a.PlacementHint == "" {
		a.PlacementHint = b.PlacementHint
	}
	if a.Sensitivity == "" {
		a.Sensitivity = b.Sensitivity
	}
	if !a.NoCache && a.CacheTTL == 0 {
		a.NoCache = b.NoCache
		a.CacheTTL = b.CacheTTL
	}
	return a
}

type adjunctEntry struct {
	path xpath.Path
	adj  Adjunct
}

// Adjuncts is an ordered set of subtree annotations. Lookup composes every
// entry covering the queried path, most specific (deepest) winning per
// field. Safe for concurrent use.
type Adjuncts struct {
	mu      sync.RWMutex
	entries []adjunctEntry
}

// NewAdjuncts returns an empty annotation set.
func NewAdjuncts() *Adjuncts {
	return &Adjuncts{}
}

// Set annotates the subtree at path. Re-annotating an equivalent path
// replaces the entry.
func (a *Adjuncts) Set(path xpath.Path, adj Adjunct) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := range a.entries {
		if xpath.Equivalent(a.entries[i].path, path) {
			a.entries[i].adj = adj
			return
		}
	}
	a.entries = append(a.entries, adjunctEntry{path: path, adj: adj})
}

// Lookup composes the annotations covering path: deeper (more specific)
// entries override shallower ones field by field. ok is false when nothing
// covers the path.
func (a *Adjuncts) Lookup(path xpath.Path) (Adjunct, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	var local [16]*adjunctEntry
	covering := local[:0]
	maxDepth := 0
	for i := range a.entries {
		e := &a.entries[i]
		if xpath.Covers(e.path, path) == xpath.CoverFull {
			covering = append(covering, e)
			maxDepth = max(maxDepth, e.path.Depth())
		}
	}
	if len(covering) == 0 {
		return Adjunct{}, false
	}
	var out Adjunct
	for depth := maxDepth; depth >= 0; depth-- {
		for _, e := range covering {
			if e.path.Depth() == depth {
				out = out.merged(e.adj)
			}
		}
	}
	return out, true
}

// GUPAdjuncts returns the standard annotations for the GUP schema: how each
// component reconciles, where it naturally lives, how sensitive it is, and
// whether it may be cached.
func GUPAdjuncts() *Adjuncts {
	a := NewAdjuncts()
	set := func(path string, adj Adjunct) {
		a.Set(xpath.MustParse(path), adj)
	}
	// Profile-wide defaults.
	set("/user", Adjunct{ReconcilePolicy: "server-wins", Sensitivity: "personal", CacheTTL: 30 * time.Second})
	// Address books merge: entries added on different devices must both
	// survive (§2.3 req 6).
	set("/user/address-book", Adjunct{ReconcilePolicy: "merge", PlacementHint: "portal", CacheTTL: time.Minute})
	set("/user/address-book/item[@type='corporate']", Adjunct{PlacementHint: "enterprise"})
	// Volatile presence and location must not be cached.
	set("/user/presence", Adjunct{PlacementHint: "portal", NoCache: true})
	set("/user/location", Adjunct{PlacementHint: "carrier", NoCache: true})
	// Financial data: strictest class, never cached, bank-homed.
	set("/user/wallet", Adjunct{Sensitivity: "financial", PlacementHint: "bank", NoCache: true})
	// Calendars merge; devices are authoritative at their network.
	set("/user/calendar", Adjunct{ReconcilePolicy: "merge", PlacementHint: "portal", CacheTTL: time.Minute})
	set("/user/devices", Adjunct{PlacementHint: "carrier", CacheTTL: 5 * time.Minute})
	set("/user/self", Adjunct{PlacementHint: "enterprise", CacheTTL: 10 * time.Minute})
	set("/user/preferences", Adjunct{PlacementHint: "enterprise", CacheTTL: time.Minute})
	return a
}
