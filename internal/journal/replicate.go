package journal

// Replicated-log surface. A journal doubles as the persistent log of a
// replicated MDM: records carry the leader term that produced them, the
// snapshot records the index it covers, and this file exposes the indexed
// view replication needs — read a suffix for shipping, truncate a
// conflicting tail, install a leader snapshot wholesale, hand out the
// durable state to rebuild from.
//
// Indexing is global and monotone across compactions: record 1 is the
// first mutation ever journaled. Compaction folds a prefix into the
// snapshot and advances base, but keeps the records it folded until the
// next compaction; Entries below that retained tail returns ErrCompacted
// so the shipper falls back to a snapshot instead of silently skipping
// records.

import (
	"errors"
	"fmt"
	"path/filepath"
)

// ErrCompacted reports that the requested log prefix has been folded into
// the snapshot; the caller should ship the snapshot instead.
var ErrCompacted = errors.New("journal: prefix compacted into snapshot")

// lastLocked is the index of the newest record. Caller holds j.mu.
func (j *Journal) lastLocked() uint64 { return j.floor + uint64(len(j.recs)) }

// termAtLocked is the term of the record at index, which is at most
// lastLocked; at or below floor it is the term at floor (exact for floor
// itself, and anything below is committed by definition). Caller holds
// j.mu.
func (j *Journal) termAtLocked(index uint64) uint64 {
	if index <= j.floor {
		return j.floorTerm
	}
	return j.recs[index-j.floor-1].Term
}

// LastIndex is the index of the newest record (0 before any append).
func (j *Journal) LastIndex() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lastLocked()
}

// LastTerm is the term of the newest record (or of the snapshot when the
// log is empty).
func (j *Journal) LastTerm() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.termAtLocked(j.lastLocked())
}

// Base is the index of the last record folded into the snapshot.
func (j *Journal) Base() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.base
}

// TermAt returns the term of the record at index. ok is false when the
// index is ahead of the log.
func (j *Journal) TermAt(index uint64) (term uint64, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if index > j.lastLocked() {
		return 0, false
	}
	return j.termAtLocked(index), true
}

// Entries returns a copy of every record with index > after, in order,
// plus the index of the first returned record. Any after at or above the
// previous compaction's index is answered, the retained tail included;
// ErrCompacted means the suffix starts below it — ship the snapshot
// instead.
func (j *Journal) Entries(after uint64) (recs []Record, first uint64, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil, 0, ErrClosed
	}
	if after < j.floor {
		return nil, 0, ErrCompacted
	}
	from := after - j.floor
	if from >= uint64(len(j.recs)) {
		return nil, after + 1, nil
	}
	return append([]Record(nil), j.recs[from:]...), after + 1, nil
}

// TruncateTo discards every record with index > index, replacing the WAL
// by the records that stay — the conflict-resolution path when a
// follower's tail diverges from the new leader's log. Truncating below
// base is an error (that prefix lives in the snapshot); truncating at or
// past the last index is a no-op.
func (j *Journal) TruncateTo(index uint64) error {
	j.cutMu.Lock()
	defer j.cutMu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if err := j.drainLocked(); err != nil {
		return err
	}
	if index < j.base {
		return fmt.Errorf("journal: truncate to %d below snapshot base %d", index, j.base)
	}
	if index >= j.lastLocked() {
		return nil
	}
	keep := j.recs[: index-j.floor : index-j.floor]
	if err := j.replaceWALLocked(j.base, j.termAtLocked(j.base), keep[j.base-j.floor:]); err != nil {
		return err
	}
	j.recs = keep
	j.appended = int(index - j.base)
	return nil
}

// InstallSnapshot replaces the journal's whole state with a leader
// checkpoint: the snapshot is cut into the journal as a compaction's is,
// the WAL is left empty and base advances to the snapshot's index. The
// caller rebuilds the in-memory directory from the same snapshot.
func (j *Journal) InstallSnapshot(s *Snapshot) error {
	j.cutMu.Lock()
	defer j.cutMu.Unlock()
	return j.cut(s, true)
}

// SnapshotNow captures the directory checkpoint without compacting the
// log — the shipping path when a follower is too far behind. The capture
// is Compact's, so it is consistent with the log index it is stamped
// with.
func (j *Journal) SnapshotNow() (*Snapshot, error) {
	snap, err := j.capture()
	if snap == nil && err == nil {
		err = errors.New("journal: no snapshot callback installed")
	}
	return snap, err
}

// State hands out the journal's durable state in the shape Open recovers
// it: the on-disk snapshot and the records after it — what a follower
// rebuilds its directory from after TruncateTo.
func (j *Journal) State() (*Recovered, error) {
	j.cutMu.Lock()
	defer j.cutMu.Unlock()
	snap, err := readSnapshot(filepath.Join(j.dir, snapName))
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	// A compaction that failed after its snapshot rename left the
	// snapshot past base.
	from := j.base
	if snap != nil && snap.Index > from && snap.Index <= j.lastLocked() {
		from = snap.Index
	}
	return &Recovered{Snapshot: snap, Records: append([]Record(nil), j.recs[from-j.floor:]...)}, nil
}
