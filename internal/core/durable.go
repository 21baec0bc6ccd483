package core

import (
	"fmt"
	"log/slog"
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
// The log is the directory's only writer. A mutation is checked for
// anything its apply would refuse, appended, and published once its record
// commits: at once on a standalone MDM, when a quorum holds it on a
// replicated one. Publishing applies the committed records after the
// published index in index order, so the directory a resolve reads is
// exactly a prefix of the log, and a failed append leaves nothing to undo.

// write is the one way a checked mutation reaches the directory: appended
// and published at its index on a standalone MDM, handed to the replicator
// on a replicated one (which publishes at commit), applied directly without
// a journal. Caller holds mutMu, so the check it made still holds when a
// standalone MDM publishes.
func (m *MDM) write(r journal.Record) error {
	switch {
	case m.replicate != nil:
		return m.replicate(r)
	case m.journal != nil:
		idx, err := m.journal.AppendIndexed(r)
		if err == nil {
			m.Publish(idx)
		}
		return err
	default:
		return m.ApplyRecord(r)
	}
}

// Publish is the one step that changes a journaled directory while it
// serves: it applies the journal's committed records after the published
// index, up to commit, in index order.
func (m *MDM) Publish(commit uint64) {
	m.pubMu.Lock()
	defer m.pubMu.Unlock()
	from := m.published.Load()
	if commit <= from {
		return
	}
	recs, _, err := m.journal.Entries(from)
	if err != nil {
		slog.Error("publish failed", "from", from, "commit", commit, "err", err)
		return
	}
	recs = recs[:min(commit-from, uint64(len(recs)))]
	for _, r := range recs {
		_ = m.ApplyRecord(r)
	}
	m.published.Store(from + uint64(len(recs)))
}

// Published is the index of the last journal record the directory holds.
func (m *MDM) Published() uint64 { return m.published.Load() }

// AttachJournal wires a journal into the MDM so subsequent mutations are
// durable, and installs the compaction snapshot callback. Call once,
// after recovery has been applied and before the MDM starts serving.
func (m *MDM) AttachJournal(j *journal.Journal) {
	m.journal = j
	j.SetSnapshotFunc(func() journal.Snapshot {
		// The index is read first: a record published while the directory
		// is read replays over the snapshot idempotently.
		idx := m.published.Load()
		return journal.Snapshot{
			Coverage: m.CoverageSnapshot(),
			Shields:  m.ShieldSnapshot(),
			Index:    idx,
		}
	})
}

// Journal exposes the attached journal (nil when the MDM is not durable).
func (m *MDM) Journal() *journal.Journal { return m.journal }

// Restore makes the directory exactly rec — its snapshot, then its records
// in order — without journaling, and publishes up to rec's last index. It
// is the one way a snapshot plus records becomes a directory: at boot
// (OpenDurable, OpenMember) and when a follower installs a leader
// snapshot.
//
// The new directory is built aside, through ApplyRecord, and installed
// whole under pubMu: its addresses are added, then its shields replace the
// old ones, then its coverage goes live, and only then are the addresses
// of stores it dropped evicted with their pooled connections and the
// leases cleared, to restart by the first-sight rule. Each swap is one
// step under the structure's own lock, so a resolve served meanwhile
// decides and plans against the old directory or the new one — stale for
// a moment, never partial — and no interleaving grants more than one of
// the two shield sets allows. Once the new coverage is live the component
// cache (its stale entries too, merged under the discarded history) is
// reset, and every live push subscription is cancelled with a
// tombstone, so its client re-subscribes against the installed directory.
// Entries that fail to apply are skipped: the journal is machine-written,
// so a bad entry is corruption best dropped, not a reason to refuse boot.
func (m *MDM) Restore(rec *journal.Recovered) {
	next := m.aside()
	last := uint64(len(rec.Records))
	if s := rec.Snapshot; s != nil {
		last += s.Index
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

	m.pubMu.Lock()
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
	m.published.Store(last)
	m.pubMu.Unlock()
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
	case journal.OpTermStart:
		return nil
	default:
		return fmt.Errorf("gupster: unknown journal op %q", r.Op)
	}
}

// OpenDurable opens (or recovers) the journal in dir, publishes whatever
// it holds into the MDM, and attaches it so new mutations are durable.
// Replay errors on individual records are tolerated (see ApplyRecord);
// only journal-level failures — unreadable files, corrupt snapshot —
// refuse boot.
func OpenDurable(m *MDM, dir string, opts journal.Options) (*journal.Recovered, error) {
	return openJournal(m, dir, opts, true)
}

// OpenMember is OpenDurable for a member of a replicated constellation: it
// publishes only the snapshot, which holds committed records alone. The
// rest of the log may hold a deposed leader's uncommitted tail, so it
// waits for a leader's commit (replication.Node publishes it).
func OpenMember(m *MDM, dir string, opts journal.Options) (*journal.Recovered, error) {
	return openJournal(m, dir, opts, false)
}

func openJournal(m *MDM, dir string, opts journal.Options, all bool) (*journal.Recovered, error) {
	j, rec, err := journal.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	// An empty journal leaves a directory loaded before it alone; the
	// first compaction checkpoints it.
	if rec.Snapshot != nil || len(rec.Records) > 0 {
		if all {
			m.Restore(rec)
		} else {
			m.Restore(&journal.Recovered{Snapshot: rec.Snapshot})
		}
	}
	m.AttachJournal(j)
	return rec, nil
}

// PutRule provisions a privacy-shield rule durably. The serving layer
// goes through this wrapper (not the PAP directly) so shield rules survive
// a crash exactly like coverage registrations.
func (m *MDM) PutRule(owner string, req *wire.PutRuleRequest) error {
	rule, err := decodeRule(req.Rule)
	if err != nil {
		return err
	}
	if err := m.PAP.CheckRule(rule); err != nil {
		return err
	}
	m.mutMu.Lock()
	defer m.mutMu.Unlock()
	return m.write(journal.Record{Op: journal.OpPutRule, PutRule: &wire.PutRuleRequest{
		Owner: owner, Rule: req.Rule,
	}})
}

// DeleteRule withdraws a shield rule durably.
func (m *MDM) DeleteRule(owner, ruleID string) error {
	m.mutMu.Lock()
	defer m.mutMu.Unlock()
	if err := m.PAP.CheckDelete(owner, ruleID); err != nil {
		return err
	}
	return m.write(journal.Record{Op: journal.OpDeleteRule, DeleteRule: &wire.DeleteRuleRequest{
		Owner: owner, RuleID: ruleID,
	}})
}
