package core_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gupster/internal/core"
	"gupster/internal/journal"
	"gupster/internal/policy"
	"gupster/internal/wire"
)

// restoreState is one directory image for Restore: owners u<from>..u<to-1>,
// each with presence and calendar coverage and one shield rule permitting
// the requester "friend" one of the two sections.
func restoreState(from, to int, presenceAt, calendarAt string, addrs map[string]string, friendSees string) *journal.Recovered {
	snap := &journal.Snapshot{}
	for i := from; i < to; i++ {
		u := fmt.Sprintf("u%d", i)
		snap.Coverage = append(snap.Coverage,
			wire.RegisterRequest{Store: presenceAt, Address: addrs[presenceAt], Path: "/user[@id='" + u + "']/presence"},
			wire.RegisterRequest{Store: calendarAt, Address: addrs[calendarAt], Path: "/user[@id='" + u + "']/calendar"})
		snap.Shields = append(snap.Shields, wire.PutRuleRequest{Owner: u, Rule: wire.RulePayload{
			ID: "friend", Path: "/user[@id='" + u + "']/" + friendSees, Effect: "permit", Cond: "requester=friend",
		}})
	}
	return &journal.Recovered{Snapshot: snap}
}

// Restore installs a directory whole. Resolves running while it replays
// 20 000 registrations — the same state several times, then a second state
// that shares half the owners and shields them differently — are answered
// from one state or the other: an owner present in both is never
// uncovered or denied, and no answer grants what neither state's shields
// allow. The MDM's registry and policy points stay the same objects.
func TestRestoreIsOneSwapForConcurrentResolves(t *testing.T) {
	const owners = 10000
	r := newRig(t, 64)
	r.addStore("sA")
	r.addStore("sB")
	addrs := map[string]string{"sA": r.stores["sA"].Addr(), "sB": r.stores["sB"].Addr()}
	// State a: owners 0..9999, presence at sA, the friend sees presence.
	// State b: owners 5000..14999, the sections swap stores, the friend
	// sees the calendar.
	a := restoreState(0, owners, "sA", "sB", addrs, "presence")
	b := restoreState(owners/2, owners+owners/2, "sB", "sA", addrs, "calendar")

	// Probe owners are in both states; both stores hold both sections.
	var probes []string
	for i := owners / 2; i < owners; i += owners / 32 {
		u := fmt.Sprintf("u%d", i)
		probes = append(probes, u)
		for _, st := range []string{"sA", "sB"} {
			r.seed(st, u, "/user[@id='"+u+"']/presence", `<presence status="on"/>`)
			r.seed(st, u, "/user[@id='"+u+"']/calendar", `<calendar><event id="e"><title>x</title></event></calendar>`)
		}
	}

	m := r.mdm
	registry, repo, pap, pdp := m.Registry, m.Repo, m.PAP, m.PDP
	m.Restore(a)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var resolves atomic.Int64
	// The first 64 failures are reported; a broken swap makes thousands,
	// and the workers must not block on reporting them.
	failures := make(chan error, 64)
	fail := func(err error) {
		select {
		case failures <- err:
		default:
		}
	}
	allowed := func(u, path string) bool {
		return path == "/user[@id='"+u+"']/presence" || path == "/user[@id='"+u+"']/calendar"
	}
	for w := 0; w < 4; w++ {
		pattern := wire.PatternReferral
		if w%2 == 1 {
			pattern = wire.PatternChaining
		}
		wg.Add(1)
		go func(w int, pattern wire.QueryPattern) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				u := probes[i%len(probes)]
				req := &wire.ResolveRequest{Path: "/user[@id='" + u + "']", Owner: u, Pattern: pattern,
					Context: policy.Context{Requester: "friend"}}
				resp, err := m.Resolve(context.Background(), req)
				resolves.Add(1)
				if err != nil {
					fail(fmt.Errorf("%s resolve of %s: %w", pattern, u, err))
					continue
				}
				if pattern == wire.PatternChaining {
					if resp.Data == "" {
						fail(fmt.Errorf("chaining resolve of %s answered no data", u))
					}
					continue
				}
				// One grant: the section one state's shield permits.
				if len(resp.Alternatives) != 1 || len(resp.Alternatives[0].Referrals) != 1 ||
					!allowed(u, resp.Alternatives[0].Referrals[0].Query.Path) {
					fail(fmt.Errorf("referral for %s grants %+v, allowed by neither state", u, resp.Alternatives))
				}
				// A requester neither state's shields name is always denied.
				req.Context.Requester = "stranger"
				if _, err := m.Resolve(context.Background(), req); !errors.Is(err, core.ErrDenied) {
					fail(fmt.Errorf("stranger resolve of %s: %v, want denied", u, err))
				}
			}
		}(w, pattern)
	}

	for i, rec := range []*journal.Recovered{a, a, a, b, b} {
		before := resolves.Load()
		start := time.Now()
		m.Restore(rec)
		t.Logf("restore %d: %d registrations in %v, %d resolves meanwhile",
			i, len(rec.Snapshot.Coverage), time.Since(start), resolves.Load()-before)
	}
	close(stop)
	wg.Wait()
	close(failures)
	for err := range failures {
		t.Error(err)
	}

	if m.Registry != registry || m.Repo != repo || m.PAP != pap || m.PDP != pdp {
		t.Error("Restore replaced the registry or policy points the MDM exposes")
	}
	if got, want := m.Registry.Len(), len(b.Snapshot.Coverage); got != want {
		t.Errorf("Registry.Len() = %d, want the installed state's %d", got, want)
	}
	if _, err := m.Repo.Get("u0"); err == nil {
		t.Error("an owner only the replaced state held kept its shield")
	}
	if m.AddrOf("sA") != addrs["sA"] || m.AddrOf("sB") != addrs["sB"] {
		t.Errorf("addresses after Restore: sA=%q sB=%q", m.AddrOf("sA"), m.AddrOf("sB"))
	}
}
