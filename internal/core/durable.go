package core

import (
	"errors"
	"fmt"
	"maps"

	"gupster/internal/coverage"
	"gupster/internal/journal"
	"gupster/internal/policy"
	"gupster/internal/wire"
	"gupster/internal/xpath"
)

// Durability. With a journal attached, every meta-data mutation —
// coverage registration, unregistration, shield-rule provisioning — is
// appended to the write-ahead log before the caller is acknowledged, and
// OpenDurable replays snapshot+log at boot so a crashed MDM comes back
// with its whole directory: no store has to re-register, no owner has to
// re-provision shields (the ISSUE's "enter once" applied to meta-data
// itself).
//
// The mutation is validated and applied in memory first, then journaled
// (compaction requires this order: a compaction's snapshot is stamped with
// the journal's last index, so the directory must already include every
// appended record). If the append fails before the record reaches the log
// — a local I/O error, or a follower refusing with a redirect — the
// in-memory application is rolled back before the caller sees the error:
// acknowledged state and durable state never diverge. A failure after the
// record reached the log (journal.ErrUnacknowledged: a leader deposed, or
// out of quorum, while it waited) keeps the mutation: the record may
// survive into the next leader's log, and a member that holds a record in
// its log never applies it again, so undoing it would leave the directory
// without it for good. If the record does not survive, the member's
// divergent tail is cut and Restore rebuilds the directory without it.
// The whole apply+append+rollback sequence runs under MDM.mutMu so the
// rollback is exact.

// journalAppend durably logs one mutation; a no-op without a journal.
// With a replicator installed (replicated constellation), the record is
// handed to the replication layer instead, which appends locally AND
// waits for a quorum of followers to hold it durably before returning —
// a mutation acknowledged to a client survives the loss of any minority
// of the constellation, the leader included.
func (m *MDM) journalAppend(r journal.Record) error {
	if m.replicate != nil {
		return m.replicate(r)
	}
	if m.journal == nil {
		return nil
	}
	return m.journal.Append(r)
}

// commit journals r for a mutation already applied, and runs undo when
// the append failed before r reached the log. Caller holds mutMu.
func (m *MDM) commit(r journal.Record, undo func()) error {
	err := m.journalAppend(r)
	if err != nil && !errors.Is(err, journal.ErrUnacknowledged) {
		undo()
	}
	return err
}

// AttachJournal wires a journal into the MDM so subsequent mutations are
// durable, and installs the compaction snapshot callback. Call once,
// after recovery has been applied and before the MDM starts serving.
func (m *MDM) AttachJournal(j *journal.Journal) {
	m.journal = j
	j.SetSnapshotFunc(func() journal.Snapshot {
		return journal.Snapshot{
			Coverage: m.CoverageSnapshot(),
			Shields:  m.ShieldSnapshot(),
		}
	})
}

// Journal exposes the attached journal (nil when the MDM is not durable).
func (m *MDM) Journal() *journal.Journal { return m.journal }

// Restore makes the directory exactly rec — its snapshot, then its records
// in order — without journaling. It is the one way a snapshot plus
// records becomes a directory: at boot (OpenDurable), when a follower
// installs a leader snapshot, and when it truncates a divergent tail.
//
// The new directory is built aside, through ApplyRecord, and installed
// whole under mutMu: its addresses are added, then its shields replace the
// old ones, then its coverage goes live, and only then are the addresses
// of stores it dropped evicted with their pooled connections and the
// leases cleared, to restart by the first-sight rule. Each swap is one
// step under the structure's own lock, so a resolve served meanwhile
// decides and plans against the old directory or the new one — stale for
// a moment, never partial — and no interleaving grants more than one of
// the two shield sets allows. Once the new coverage is live the component
// cache (including the brownout side-buffer, merged under the discarded
// history) is reset, and every live push subscription is cancelled with a
// tombstone, so its client re-subscribes against the installed directory.
// Entries that fail to apply are skipped: the journal is machine-written,
// so a bad entry is corruption best dropped, not a reason to refuse boot.
func (m *MDM) Restore(rec *journal.Recovered) {
	next := m.aside()
	if s := rec.Snapshot; s != nil {
		for i := range s.Coverage {
			_ = next.ApplyRecord(journal.Record{Op: journal.OpRegister, Register: &s.Coverage[i]})
		}
		for i := range s.Shields {
			_ = next.ApplyRecord(journal.Record{Op: journal.OpPutRule, PutRule: &s.Shields[i]})
		}
	}
	for _, r := range rec.Records {
		_ = next.ApplyRecord(r)
	}

	m.mutMu.Lock()
	m.mu.Lock()
	old := maps.Clone(m.addrs)
	maps.Copy(m.addrs, next.addrs)
	m.mu.Unlock()
	m.Repo.Replace(next.Repo)
	m.Registry.Replace(next.Registry)
	m.mu.Lock()
	m.addrs = next.addrs
	m.mu.Unlock()
	for id, addr := range old {
		if next.addrs[id] != addr {
			m.pool.Evict(addr)
		}
	}
	m.leaseMu.Lock()
	clear(m.leases)
	m.leaseMu.Unlock()
	m.mutMu.Unlock()
	if m.cache != nil {
		m.cache.reset()
	}
	for _, sub := range m.subs.reset() {
		sub.deliver(wire.Notification{Path: sub.path.String(), Canceled: true})
	}
}

// aside returns an empty directory holding only what ApplyRecord writes —
// coverage, shields vetted as m vets them, and addresses — for Restore to
// build and install.
func (m *MDM) aside() *MDM {
	repo := policy.NewRepository()
	return &MDM{
		Registry: coverage.New(),
		Repo:     repo,
		PAP:      &policy.AdministrationPoint{Repo: repo, ValidatePath: m.PAP.ValidatePath},
		addrs:    make(map[coverage.StoreID]string),
	}
}

// ApplyRecord replays one journaled mutation without re-journaling it.
// Replay is idempotent and tolerant: re-registering is a no-op,
// unregistering a missing entry or deleting a missing rule is ignored
// (the snapshot/log overlap around compaction makes both normal).
func (m *MDM) ApplyRecord(r journal.Record) error {
	switch r.Op {
	case journal.OpRegister:
		if r.Register == nil {
			return fmt.Errorf("gupster: %s record without payload", r.Op)
		}
		p, err := xpath.Parse(r.Register.Path)
		if err != nil {
			return err
		}
		return m.applyRegister(coverage.StoreID(r.Register.Store), r.Register.Address, p)
	case journal.OpUnregister:
		if r.Unregister == nil {
			return fmt.Errorf("gupster: %s record without payload", r.Op)
		}
		p, err := xpath.Parse(r.Unregister.Path)
		if err != nil {
			return err
		}
		if err := m.applyUnregister(coverage.StoreID(r.Unregister.Store), p); err != nil && err != coverage.ErrNotRegistered {
			return err
		}
		return nil
	case journal.OpPutRule:
		if r.PutRule == nil {
			return fmt.Errorf("gupster: %s record without payload", r.Op)
		}
		rule, err := decodeRule(r.PutRule.Rule)
		if err != nil {
			return err
		}
		return m.PAP.PutRule(r.PutRule.Owner, rule)
	case journal.OpDeleteRule:
		if r.DeleteRule == nil {
			return fmt.Errorf("gupster: %s record without payload", r.Op)
		}
		_ = m.PAP.DeleteRule(r.DeleteRule.Owner, r.DeleteRule.RuleID)
		return nil
	default:
		return fmt.Errorf("gupster: unknown journal op %q", r.Op)
	}
}

// OpenDurable opens (or recovers) the journal in dir, replays whatever it
// holds into the MDM, and attaches it so new mutations are durable.
// Replay errors on individual records are tolerated (see ApplyRecord);
// only journal-level failures — unreadable files, corrupt snapshot —
// refuse boot.
func OpenDurable(m *MDM, dir string, opts journal.Options) (*journal.Recovered, error) {
	j, rec, err := journal.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	// An empty journal leaves a directory loaded before it alone; the
	// first compaction checkpoints it.
	if rec.Snapshot != nil || len(rec.Records) > 0 {
		m.Restore(rec)
	}
	m.AttachJournal(j)
	return rec, nil
}

// PutRule provisions a privacy-shield rule durably: applied to the
// policy repository, then journaled; an append that failed before the log
// restores the rule (or absence) the owner had before. The serving layer
// goes through this wrapper (not the PAP directly) so shield rules survive
// a crash exactly like coverage registrations.
func (m *MDM) PutRule(owner string, req *wire.PutRuleRequest) error {
	rule, err := decodeRule(req.Rule)
	if err != nil {
		return err
	}
	m.mutMu.Lock()
	defer m.mutMu.Unlock()
	prev, hadPrev := m.ruleByID(owner, rule.ID)
	if err := m.PAP.PutRule(owner, rule); err != nil {
		return err
	}
	return m.commit(journal.Record{Op: journal.OpPutRule, PutRule: &wire.PutRuleRequest{
		Owner: owner, Rule: req.Rule,
	}}, func() {
		if hadPrev {
			_ = m.PAP.PutRule(owner, prev)
		} else {
			_ = m.PAP.DeleteRule(owner, rule.ID)
		}
	})
}

// DeleteRule withdraws a shield rule durably; an append that failed before
// the log re-provisions the rule it removed.
func (m *MDM) DeleteRule(owner, ruleID string) error {
	m.mutMu.Lock()
	defer m.mutMu.Unlock()
	prev, _ := m.ruleByID(owner, ruleID) // DeleteRule fails unless it exists
	if err := m.PAP.DeleteRule(owner, ruleID); err != nil {
		return err
	}
	return m.commit(journal.Record{Op: journal.OpDeleteRule, DeleteRule: &wire.DeleteRuleRequest{
		Owner: owner, RuleID: ruleID,
	}}, func() { _ = m.PAP.PutRule(owner, prev) })
}

// ruleByID snapshots an owner's current rule for rollback.
func (m *MDM) ruleByID(owner, id string) (policy.Rule, bool) {
	shield, err := m.Repo.Get(owner)
	if err != nil {
		return policy.Rule{}, false
	}
	for _, r := range shield.Rules {
		if r.ID == id {
			return r, true
		}
	}
	return policy.Rule{}, false
}
