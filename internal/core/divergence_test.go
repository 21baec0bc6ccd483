package core_test

// Regression tests for the directory-mutation divergence bugs the shard
// work exposed: acknowledged state and durable state must never disagree.
// Each test fails on the pre-fix code.

import (
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

// flakyReplicator stands in for a replicated constellation's quorum append:
// while failing, every durable append is refused — exactly what a leader
// that lost its quorum mid-call sees.
type flakyReplicator struct {
	mu      sync.Mutex
	failing bool
}

var errNoQuorum = errors.New("replication: no quorum")

func (f *flakyReplicator) append(journal.Record) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failing {
		return errNoQuorum
	}
	return nil
}

func (f *flakyReplicator) setFailing(v bool) {
	f.mu.Lock()
	f.failing = v
	f.mu.Unlock()
}

// A Register refused by the durable layer must leave no trace: without the
// rollback the leader kept serving a registration its followers never
// accepted, and the divergence surfaced as phantom coverage after the next
// election.
func TestRegisterRollbackOnFailedAppend(t *testing.T) {
	m := newBareMDM(core.Config{})
	defer m.Close()
	rep := &flakyReplicator{failing: true}
	m.SetReplicator(rep.append)

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
		t.Fatal("failed re-Register rolled back a registration that predated it")
	}
	if got := m.AddrOf("s1"); got != "127.0.0.1:7001" {
		t.Fatalf("failed re-Register did not restore the old address: %q", got)
	}
}

// An Unregister refused by the durable layer must keep the registration —
// the store was told its withdrawal failed, so the directory must still
// route to it.
func TestUnregisterRollbackOnFailedAppend(t *testing.T) {
	m := newBareMDM(core.Config{})
	defer m.Close()
	rep := &flakyReplicator{}
	m.SetReplicator(rep.append)

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
// restores the rule (or absence) the owner had before.
func TestRuleRollbackOnFailedAppend(t *testing.T) {
	m := newBareMDM(core.Config{})
	defer m.Close()
	rep := &flakyReplicator{}
	m.SetReplicator(rep.append)

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

	// A brand-new rule whose append fails must vanish.
	rep.setFailing(true)
	if err := m.PutRule("u", rule("permit", 1)); !errors.Is(err, errNoQuorum) {
		t.Fatalf("PutRule with failing append: err = %v", err)
	}
	if _, ok := findRule(); ok {
		t.Fatal("failed PutRule left the rule provisioned")
	}

	// A replacement whose append fails must restore the previous rule.
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

	// A deletion whose append fails must re-provision the rule.
	if err := m.DeleteRule("u", "r1"); !errors.Is(err, errNoQuorum) {
		t.Fatalf("DeleteRule with failing append: err = %v", err)
	}
	if _, ok := findRule(); !ok {
		t.Fatal("failed DeleteRule removed the rule anyway")
	}
}

// A mutation whose record reached the log stays applied even when the
// append then fails (journal.ErrUnacknowledged: the leader was deposed or
// lost its quorum while it waited). The record may survive into the next
// leader's log, and a member never applies a record it already holds, so
// undoing it here would lose it for good.
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
		name   string
		before func(m *core.MDM) error // applied while the log accepts
		mutate func(m *core.MDM) error // applied while the quorum wait fails
		stays  func(m *core.MDM) bool
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
			m := newBareMDM(core.Config{})
			defer m.Close()
			var fail bool
			m.SetReplicator(func(journal.Record) error {
				if fail {
					return unacked
				}
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
			if !tc.stays(m) {
				t.Fatal("a mutation whose record reached the log was rolled back")
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
