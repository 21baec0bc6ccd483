package coverage

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"gupster/internal/xpath"
)

// Property: the indexed Lookup is sound and complete against the Covers
// relation itself — every returned match really covers (fully or partially)
// the query, every registration that covers the query is returned exactly
// once, and full covers are ordered before partials. This complements
// TestQuickIndexedEqualsLinear, which only checks the two lookup paths
// against each other: if both shared a classification bug, that test would
// still pass.
func TestQuickLookupSoundAndComplete(t *testing.T) {
	users := []string{"a", "b", "c", ""}
	sections := []string{"presence", "calendar", "address-book", "devices", "*"}
	deep := []string{"", "/item[@type='personal']", "/item[@type='corporate']", "/device[@network='pstn']"}

	randomPath := func(rng *rand.Rand) xpath.Path {
		u := users[rng.Intn(len(users))]
		sec := sections[rng.Intn(len(sections))]
		p := "/user"
		if u != "" {
			p = fmt.Sprintf("/user[@id='%s']", u)
		}
		if rng.Intn(5) > 0 {
			p += "/" + sec
			if sec != "*" && rng.Intn(3) == 0 {
				p += deep[rng.Intn(len(deep))]
			}
		}
		parsed, err := xpath.Parse(p)
		if err != nil {
			t.Fatalf("generator bug: %q: %v", p, err)
		}
		return parsed
	}

	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := New()
		n := 1 + rng.Intn(20)
		for i := 0; i < n; i++ {
			r.Register(randomPath(rng), StoreID(fmt.Sprintf("s%d", rng.Intn(4))))
		}
		regs := r.Snapshot()
		for q := 0; q < 10; q++ {
			query := randomPath(rng)
			ms := r.Lookup(query)

			// Soundness: each match's relation is exactly what Covers says,
			// and never CoverNone. Matches are unique per (store, path).
			seen := make(map[string]bool, len(ms))
			sawPartial := false
			for _, m := range ms {
				if got := xpath.Covers(m.Path, query); got != m.Rel || got == xpath.CoverNone {
					t.Logf("seed %d: Lookup(%s) returned %s@%s as %v, Covers says %v",
						seed, query, m.Path, m.Store, m.Rel, got)
					return false
				}
				key := string(m.Store) + "\x00" + m.Path.String()
				if seen[key] {
					t.Logf("seed %d: duplicate match %s", seed, key)
					return false
				}
				seen[key] = true
				if m.Rel == xpath.CoverPartial {
					sawPartial = true
				} else if sawPartial {
					t.Logf("seed %d: full match after partial in Lookup(%s)", seed, query)
					return false
				}
			}

			// Completeness: every registration whose path covers the query
			// appears among the matches.
			for _, reg := range regs {
				if xpath.Covers(reg.Path, query) == xpath.CoverNone {
					continue
				}
				if !seen[string(reg.Store)+"\x00"+reg.Path.String()] {
					t.Logf("seed %d: Lookup(%s) missed covering registration %s@%s",
						seed, query, reg.Path, reg.Store)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Snapshot lists every live registration once, in the order of
// (store, rendered path) — what sorting by Path.String() gives — although
// it compares the strings the entries rendered at registration. Paths with
// several predicates registered in either order render the same, so the
// registry holds them once.
func TestQuickSnapshotOrderIsRenderedOrder(t *testing.T) {
	preds := []string{"[@id='a']", "[@id='b']", "[@id='a'][@v]", "[@v][@id='a']", "[@v]", ""}
	sections := []string{"presence", "calendar", "address-book/item[@type='x']", "address-book/item[@kind][@type='x']", "*"}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := New()
		live := make(map[string]bool)
		for i, n := 0, rng.Intn(40); i < n; i++ {
			p := xpath.MustParse("/user" + preds[rng.Intn(len(preds))] + "/" + sections[rng.Intn(len(sections))])
			st := StoreID(fmt.Sprintf("s%d", rng.Intn(5)))
			if rng.Intn(4) == 0 {
				if r.Unregister(p, st) == nil {
					delete(live, string(st)+"\x00"+p.String())
				}
				continue
			}
			if r.Register(p, st) == nil {
				live[string(st)+"\x00"+p.String()] = true
			}
		}
		snap := r.Snapshot()
		if len(snap) != len(live) {
			t.Logf("seed %d: snapshot has %d registrations, %d are live", seed, len(snap), len(live))
			return false
		}
		want := slices.Clone(snap)
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].Store != want[j].Store {
				return want[i].Store < want[j].Store
			}
			return want[i].Path.String() < want[j].Path.String()
		})
		for i := range snap {
			key := string(snap[i].Store) + "\x00" + snap[i].Path.String()
			if !live[key] {
				t.Logf("seed %d: snapshot lists %q, not live", seed, key)
				return false
			}
			if snap[i].Store != want[i].Store || snap[i].Path.String() != want[i].Path.String() {
				t.Logf("seed %d: position %d is %s@%s, rendered order has %s@%s",
					seed, i, snap[i].Path, snap[i].Store, want[i].Path, want[i].Store)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
