package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"gupster/internal/coverage"
	"gupster/internal/token"
	"gupster/internal/xpath"
)

// Property: every referral the planner emits carries a signed query path
// that is fully covered by the grant it was planned for — the MDM never
// signs access to data outside what the privacy shield granted, no matter
// how coverage is registered. This is the safety side of the signed-referral
// design (§5.3): stores enforce exactly the signed path, so an over-wide
// signature would be an authorization leak.
func TestQuickPlanNeverExceedsGrant(t *testing.T) {
	users := []string{"a", "b", "c"}
	sections := []string{"presence", "calendar", "address-book", "devices"}
	deep := []string{"", "/item[@type='personal']", "/item[@type='corporate']"}

	randomPath := func(rng *rand.Rand, pinned bool) xpath.Path {
		p := "/user"
		if pinned {
			p = fmt.Sprintf("/user[@id='%s']", users[rng.Intn(len(users))])
		}
		p += "/" + sections[rng.Intn(len(sections))]
		if rng.Intn(3) == 0 {
			p += deep[rng.Intn(len(deep))]
		}
		return xpath.MustParse(p)
	}

	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(Config{Signer: token.NewSigner([]byte("plan-property-key"))})
		n := 1 + rng.Intn(12)
		for i := 0; i < n; i++ {
			st := coverage.StoreID(fmt.Sprintf("s%d", rng.Intn(4)))
			m.Register(st, "127.0.0.1:0", randomPath(rng, rng.Intn(2) == 0))
		}
		for q := 0; q < 10; q++ {
			grant := randomPath(rng, true)
			owner, _ := coverage.UserOf(grant)
			routes, _, err := m.plan([]xpath.Path{grant})
			if err != nil {
				continue // no coverage for this grant — nothing signed, nothing leaked
			}
			alts := m.sign(routes, owner, token.VerbFetch, "requester")
			if len(alts) == 0 {
				t.Logf("seed %d: plan returned no error and no alternatives for %s", seed, grant)
				return false
			}
			for _, alt := range alts {
				if len(alt.Referrals) == 0 {
					t.Logf("seed %d: empty alternative for %s", seed, grant)
					return false
				}
				for _, ref := range alt.Referrals {
					signed, perr := ref.Query.ParsedPath()
					if perr != nil {
						t.Logf("seed %d: unparsable signed path %q: %v", seed, ref.Query.Path, perr)
						return false
					}
					if xpath.Covers(grant, signed) != xpath.CoverFull {
						t.Logf("seed %d: grant %s, signed path %s escapes the grant", seed, grant, signed)
						return false
					}
					if ref.Query.Owner != owner {
						t.Logf("seed %d: signed owner %q, want %q", seed, ref.Query.Owner, owner)
						return false
					}
					if ref.Query.Verb != token.VerbFetch || ref.Query.Requester != "requester" {
						t.Logf("seed %d: signed verb/requester mangled: %+v", seed, ref.Query)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
