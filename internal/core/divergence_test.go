package core_test

// Regression tests for the directory-mutation divergence bugs the shard
// work exposed: acknowledged state, durable state and the state a resolve
// reads must never disagree.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"gupster/internal/core"
	"gupster/internal/journal"
	"gupster/internal/policy"
	"gupster/internal/wire"
	"gupster/internal/xpath"
)

// flakyReplicator stands in for a replicated constellation's quorum append
// on a journaled MDM: while failing, every append is refused before the
// log — what a leader that lost its quorum mid-call sees; otherwise the
// record is appended and published, as a quorum of one commits it.
type flakyReplicator struct {
	m       *core.MDM
	mu      sync.Mutex
	failing bool
}

var errNoQuorum = errors.New("replication: no quorum")

func (f *flakyReplicator) append(r journal.Record) error {
	f.mu.Lock()
	failing := f.failing
	f.mu.Unlock()
	if failing {
		return errNoQuorum
	}
	idx, err := f.m.Journal().AppendIndexed(r)
	if err == nil {
		f.m.Publish(idx)
	}
	return err
}

func (f *flakyReplicator) setFailing(v bool) {
	f.mu.Lock()
	f.failing = v
	f.mu.Unlock()
}

// newJournaledMDM opens a bare MDM on the journal in dir.
func newJournaledMDM(t *testing.T, dir string) *core.MDM {
	t.Helper()
	m := newBareMDM(core.Config{})
	if _, err := core.OpenDurable(m, dir, journal.Options{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	return m
}

// newFlakyMDM is a journaled MDM whose appends go through a flakyReplicator.
func newFlakyMDM(t *testing.T) (*core.MDM, *flakyReplicator) {
	t.Helper()
	m := newJournaledMDM(t, t.TempDir())
	rep := &flakyReplicator{m: m}
	m.SetReplicator(rep.append)
	return m, rep
}

// A Register refused by the durable layer must leave no trace: the leader
// once kept serving a registration its followers never accepted, and the
// divergence surfaced as phantom coverage after the next election. Nothing
// is applied before the append, so nothing is left to undo.
func TestRegisterRollbackOnFailedAppend(t *testing.T) {
	m, rep := newFlakyMDM(t)
	defer m.Close()
	rep.setFailing(true)

	p := xpath.MustParse("/user[@id='u']/presence")
	if err := m.Register("s1", "127.0.0.1:7001", p); !errors.Is(err, errNoQuorum) {
		t.Fatalf("Register with failing append: err = %v, want errNoQuorum", err)
	}
	if m.Registry.Len() != 0 {
		t.Fatalf("failed Register left %d registrations in the directory", m.Registry.Len())
	}
	if got := m.AddrOf("s1"); got != "" {
		t.Fatalf("failed Register left address %q", got)
	}

	// An idempotent re-registration that fails must NOT remove the
	// registration the directory already held.
	rep.setFailing(false)
	if err := m.Register("s1", "127.0.0.1:7001", p); err != nil {
		t.Fatalf("Register: %v", err)
	}
	rep.setFailing(true)
	if err := m.Register("s1", "127.0.0.1:7002", p); !errors.Is(err, errNoQuorum) {
		t.Fatalf("re-Register with failing append: err = %v", err)
	}
	if !m.Registry.Registered(p, "s1") {
		t.Fatal("failed re-Register removed a registration that predated it")
	}
	if got := m.AddrOf("s1"); got != "127.0.0.1:7001" {
		t.Fatalf("failed re-Register changed the old address: %q", got)
	}
}

// An Unregister refused by the durable layer must keep the registration —
// the store was told its withdrawal failed, so the directory must still
// route to it.
func TestUnregisterRollbackOnFailedAppend(t *testing.T) {
	m, rep := newFlakyMDM(t)
	defer m.Close()

	p := xpath.MustParse("/user[@id='u']/presence")
	if err := m.Register("s1", "127.0.0.1:7001", p); err != nil {
		t.Fatalf("Register: %v", err)
	}
	rep.setFailing(true)
	if err := m.Unregister("s1", p); !errors.Is(err, errNoQuorum) {
		t.Fatalf("Unregister with failing append: err = %v", err)
	}
	if !m.Registry.Registered(p, "s1") {
		t.Fatal("failed Unregister removed the registration anyway")
	}
	if got := m.AddrOf("s1"); got != "127.0.0.1:7001" {
		t.Fatalf("failed Unregister lost the store address: %q", got)
	}
}

// Shield-rule provisioning takes the same durable path: a failed append
// leaves the rule (or absence) the owner had before.
func TestRuleRollbackOnFailedAppend(t *testing.T) {
	m, rep := newFlakyMDM(t)
	defer m.Close()

	rule := func(effect string, prio int) *wire.PutRuleRequest {
		return &wire.PutRuleRequest{Owner: "u", Rule: wire.RulePayload{
			ID: "r1", Path: "/user[@id='u']/presence", Effect: effect, Priority: prio,
		}}
	}
	findRule := func() (wire.RulePayload, bool) {
		for _, pr := range m.ShieldSnapshot() {
			if pr.Owner == "u" && pr.Rule.ID == "r1" {
				return pr.Rule, true
			}
		}
		return wire.RulePayload{}, false
	}

	// A brand-new rule whose append fails must not appear.
	rep.setFailing(true)
	if err := m.PutRule("u", rule("permit", 1)); !errors.Is(err, errNoQuorum) {
		t.Fatalf("PutRule with failing append: err = %v", err)
	}
	if _, ok := findRule(); ok {
		t.Fatal("failed PutRule left the rule provisioned")
	}

	// A replacement whose append fails must leave the previous rule.
	rep.setFailing(false)
	if err := m.PutRule("u", rule("permit", 1)); err != nil {
		t.Fatalf("PutRule: %v", err)
	}
	rep.setFailing(true)
	if err := m.PutRule("u", rule("deny", 9)); !errors.Is(err, errNoQuorum) {
		t.Fatalf("replacement PutRule with failing append: err = %v", err)
	}
	got, ok := findRule()
	if !ok {
		t.Fatal("failed replacement PutRule lost the previous rule")
	}
	if got.Effect != "permit" || got.Priority != 1 {
		t.Fatalf("failed replacement left rule %+v, want the original permit/1", got)
	}

	// A deletion whose append fails must leave the rule.
	if err := m.DeleteRule("u", "r1"); !errors.Is(err, errNoQuorum) {
		t.Fatalf("DeleteRule with failing append: err = %v", err)
	}
	if _, ok := findRule(); !ok {
		t.Fatal("failed DeleteRule removed the rule anyway")
	}
}

// A shield rule is served only once its record commits: an owner's permit
// whose append waits, then fails, grants a stranger nothing — not while the
// append waits, and not after it failed.
func TestResolveNeverSeesAFailedRule(t *testing.T) {
	m := newBareMDM(core.Config{})
	defer m.Close()
	p := xpath.MustParse("/user[@id='u']/presence")
	if err := m.Register("s1", "127.0.0.1:7001", p); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	m.SetReplicator(func(journal.Record) error {
		close(entered)
		<-release
		return errNoQuorum
	})
	done := make(chan error, 1)
	go func() {
		done <- m.PutRule("u", &wire.PutRuleRequest{Owner: "u", Rule: wire.RulePayload{
			ID: "r1", Path: "/user[@id='u']/presence", Effect: "permit",
		}})
	}()
	stranger := func(when string) {
		t.Helper()
		_, err := m.Resolve(context.Background(), &wire.ResolveRequest{
			Path: p.String(), Context: policy.Context{Requester: "mallory", Role: "stranger"},
		})
		if !errors.Is(err, core.ErrDenied) {
			t.Errorf("a stranger's resolve %s the permit's append: err = %v, want ErrDenied", when, err)
		}
	}
	<-entered
	stranger("during")
	close(release)
	if err := <-done; !errors.Is(err, errNoQuorum) {
		t.Fatalf("PutRule = %v, want errNoQuorum", err)
	}
	stranger("after")
}

// A mutation whose record reached the log but whose commit is unknown
// (journal.ErrUnacknowledged: the leader was deposed or lost its quorum
// while it waited) is in the log, not in the directory: it is not served.
// Once a later commit covers it, it is served, and a reopen of the journal
// keeps it — a logged record is never undone.
func TestLoggedMutationIsNeverUndone(t *testing.T) {
	unacked := fmt.Errorf("%w: %w", journal.ErrUnacknowledged, &wire.NotLeaderError{Term: 2})
	p := xpath.MustParse("/user[@id='u']/presence")
	rule := &wire.PutRuleRequest{Owner: "u", Rule: wire.RulePayload{ID: "r1", Path: "/user[@id='u']/presence", Effect: "permit"}}
	hasRule := func(m *core.MDM) bool {
		for _, pr := range m.ShieldSnapshot() {
			if pr.Owner == "u" && pr.Rule.ID == "r1" {
				return true
			}
		}
		return false
	}
	for _, tc := range []struct {
		name    string
		before  func(m *core.MDM) error // committed while the quorum answers
		mutate  func(m *core.MDM) error // logged while the quorum wait fails
		applied func(m *core.MDM) bool
	}{
		{"register", nil,
			func(m *core.MDM) error { return m.Register("s1", "127.0.0.1:7001", p) },
			func(m *core.MDM) bool { return m.Registry.Registered(p, "s1") && m.AddrOf("s1") == "127.0.0.1:7001" }},
		{"unregister",
			func(m *core.MDM) error { return m.Register("s1", "127.0.0.1:7001", p) },
			func(m *core.MDM) error { return m.Unregister("s1", p) },
			func(m *core.MDM) bool { return m.Registry.Len() == 0 && m.AddrOf("s1") == "" }},
		{"put rule", nil,
			func(m *core.MDM) error { return m.PutRule("u", rule) },
			hasRule},
		{"delete rule",
			func(m *core.MDM) error { return m.PutRule("u", rule) },
			func(m *core.MDM) error { return m.DeleteRule("u", "r1") },
			func(m *core.MDM) bool { return !hasRule(m) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			m := newJournaledMDM(t, dir)
			var fail bool
			m.SetReplicator(func(r journal.Record) error {
				idx, err := m.Journal().AppendIndexed(r)
				if err != nil {
					return err
				}
				if fail {
					return unacked
				}
				m.Publish(idx)
				return nil
			})
			if tc.before != nil {
				if err := tc.before(m); err != nil {
					t.Fatal(err)
				}
			}
			fail = true
			err := tc.mutate(m)
			var nl *wire.NotLeaderError
			if !errors.Is(err, journal.ErrUnacknowledged) || !errors.As(err, &nl) {
				t.Fatalf("err = %v, want ErrUnacknowledged wrapping a NotLeaderError", err)
			}
			if tc.applied(m) {
				t.Fatal("a mutation no commit covers was served")
			}
			m.Publish(m.Journal().LastIndex())
			if !tc.applied(m) {
				t.Fatal("a commit covering the logged mutation did not publish it")
			}
			m.Close()
			m = newJournaledMDM(t, dir)
			defer m.Close()
			if !tc.applied(m) {
				t.Fatal("the published mutation was lost across a reopen")
			}
		})
	}
}

// Restore rebuilds the directory from someone else's history (a follower
// installing a leader snapshot). Live push subscriptions were
// admitted against the discarded history: they must be cancelled with a
// tombstone, not left silently attached to a feed that will never fire.
func TestResetDirectoryCancelsSubscriptions(t *testing.T) {
	m := newBareMDM(core.Config{})
	defer m.Close()

	var mu sync.Mutex
	var got []wire.Notification
	_, err := m.Subscribe(&wire.SubscribeRequest{
		Path:    "/user[@id='alice']/presence",
		Context: policy.Context{Requester: "alice", Role: "self"},
	}, func(n wire.Notification) {
		mu.Lock()
		got = append(got, n)
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	m.Restore(&journal.Recovered{})

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || !got[0].Canceled {
		t.Fatalf("reset delivered %+v, want exactly one tombstone", got)
	}
	if n := m.Snapshot().Subscriptions; n != 0 {
		t.Fatalf("reset left %d live subscriptions", n)
	}
}

// A compaction that lands between an append and its publish snapshots the
// published directory at the published index and keeps the record in the
// log, so a reopen still publishes it.
func TestCompactionBeforePublishKeepsTheRecord(t *testing.T) {
	dir := t.TempDir()
	m := newJournaledMDM(t, dir)
	alice, bob := xpath.MustParse("/user[@id='alice']/presence"), xpath.MustParse("/user[@id='bob']/presence")
	if err := m.Register("s1", "127.0.0.1:7001", alice); err != nil {
		t.Fatal(err)
	}
	m.SetReplicator(func(r journal.Record) error {
		if _, err := m.Journal().AppendIndexed(r); err != nil {
			return err
		}
		return m.Journal().Compact()
	})
	if err := m.Register("s2", "127.0.0.1:7002", bob); err != nil {
		t.Fatal(err)
	}
	if m.Registry.Registered(bob, "s2") {
		t.Fatal("the registration was served before its publish")
	}
	if base, last := m.Journal().Base(), m.Journal().LastIndex(); base != 1 || last != 2 {
		t.Fatalf("compaction at base %d with last %d, want the published index 1 and last 2", base, last)
	}
	m.Close()

	m = newJournaledMDM(t, dir)
	defer m.Close()
	if !m.Registry.Registered(alice, "s1") || !m.Registry.Registered(bob, "s2") {
		t.Fatalf("reopen holds %v, want both registrations", m.CoverageSnapshot())
	}
}
