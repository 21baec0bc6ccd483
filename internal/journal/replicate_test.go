package journal

import (
	"errors"
	"fmt"
	"testing"

	"gupster/internal/wire"
)

func replRecord(term uint64, i int) Record {
	return Record{Op: OpRegister, Term: term, Register: &wire.RegisterRequest{
		Store:   fmt.Sprintf("store-%d", i),
		Address: "127.0.0.1:0",
		Path:    fmt.Sprintf("/Users/u%d/Profile", i),
	}}
}

func openRepl(t *testing.T, dir string) (*Journal, *Recovered) {
	t.Helper()
	j, rec, err := Open(dir, Options{NoSync: true, CompactEvery: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j, rec
}

func TestIndexedAppendAndEntries(t *testing.T) {
	dir := t.TempDir()
	j, _ := openRepl(t, dir)
	defer j.Close()

	for i := 0; i < 5; i++ {
		if err := j.Append(replRecord(3, i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if got := j.LastIndex(); got != 5 {
		t.Fatalf("LastIndex = %d, want 5", got)
	}
	if got := j.LastTerm(); got != 3 {
		t.Fatalf("LastTerm = %d, want 3", got)
	}
	recs, first, err := j.Entries(2)
	if err != nil {
		t.Fatalf("Entries(2): %v", err)
	}
	if first != 3 || len(recs) != 3 {
		t.Fatalf("Entries(2) = %d records from %d, want 3 from 3", len(recs), first)
	}
	if recs[0].Register.Store != "store-2" {
		t.Fatalf("Entries(2)[0] = %s, want store-2", recs[0].Register.Store)
	}
	// A suffix past the end is empty, not an error.
	recs, _, err = j.Entries(99)
	if err != nil || len(recs) != 0 {
		t.Fatalf("Entries(99) = %d records, err %v; want empty, nil", len(recs), err)
	}
	if term, ok := j.TermAt(4); !ok || term != 3 {
		t.Fatalf("TermAt(4) = %d,%v; want 3,true", term, ok)
	}
}

// TestEntriesAfterCompaction is the regression test for the catch-up vs
// compaction race: a reader asking for a prefix below the retained tail
// must get ErrCompacted (so it ships the snapshot), never a silently
// truncated record list — while a reader inside the tail the last
// compaction folded still gets its records.
func TestEntriesAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _ := openRepl(t, dir)
	defer j.Close()

	var cov []wire.RegisterRequest
	j.SetSnapshotFunc(func() Snapshot { return Snapshot{Coverage: cov, Index: j.LastIndex()} })
	appendN := func(term uint64, from, to int) {
		for i := from; i < to; i++ {
			if err := j.Append(replRecord(term, i)); err != nil {
				t.Fatalf("append: %v", err)
			}
			cov = append(cov, *replRecord(term, i).Register)
		}
	}
	appendN(1, 0, 4)
	if err := j.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if got := j.Base(); got != 4 {
		t.Fatalf("Base = %d after compaction, want 4", got)
	}
	// Inside the retained tail: the records the compaction folded.
	if recs, first, err := j.Entries(2); err != nil || first != 3 || len(recs) != 2 || recs[0].Register.Store != "store-2" {
		t.Fatalf("Entries(2) after one compaction = %d records from %d, err %v; want store-2, store-3 from 3", len(recs), first, err)
	}
	appendN(2, 4, 6)
	if err := j.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// Below the tail the second compaction retained (records 5 and 6).
	if _, _, err := j.Entries(2); !errors.Is(err, ErrCompacted) {
		t.Fatalf("Entries(2) after two compactions = %v, want ErrCompacted", err)
	}
	if term, ok := j.TermAt(5); !ok || term != 2 {
		t.Fatalf("TermAt(5) in the retained tail = %d,%v; want 2,true", term, ok)
	}
	// The boundary itself is still addressable: everything after base.
	if recs, _, err := j.Entries(6); err != nil || len(recs) != 0 {
		t.Fatalf("Entries(6) = %d records, err %v; want empty, nil", len(recs), err)
	}
	// Appends after compaction keep global indexing.
	if err := j.Append(replRecord(3, 9)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if got := j.LastIndex(); got != 7 {
		t.Fatalf("LastIndex = %d after post-compaction append, want 7", got)
	}
	snap, err := j.SnapshotNow()
	if err != nil {
		t.Fatalf("SnapshotNow: %v", err)
	}
	if snap.Index != 7 || snap.Term != 3 {
		t.Fatalf("SnapshotNow = index %d term %d, want 7/3", snap.Index, snap.Term)
	}
}

func TestIndexSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	j, _ := openRepl(t, dir)
	var cov []wire.RegisterRequest
	j.SetSnapshotFunc(func() Snapshot { return Snapshot{Coverage: cov, Index: j.LastIndex()} })
	for i := 0; i < 3; i++ {
		if err := j.Append(replRecord(1, i)); err != nil {
			t.Fatalf("append: %v", err)
		}
		cov = append(cov, *replRecord(1, i).Register)
	}
	if err := j.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := j.Append(replRecord(2, 3)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, rec := openRepl(t, dir)
	defer j2.Close()
	if j2.Base() != 3 || j2.LastIndex() != 4 {
		t.Fatalf("reopen: base %d last %d, want 3/4", j2.Base(), j2.LastIndex())
	}
	if rec.Snapshot == nil || rec.Snapshot.Index != 3 {
		t.Fatalf("reopen: snapshot index = %+v, want 3", rec.Snapshot)
	}
	if len(rec.Records) != 1 || rec.Records[0].Term != 2 {
		t.Fatalf("reopen: %d live records (term %d), want 1 at term 2", len(rec.Records), rec.Records[0].Term)
	}
}

func TestTruncateTo(t *testing.T) {
	dir := t.TempDir()
	j, _ := openRepl(t, dir)
	for i := 0; i < 5; i++ {
		if err := j.Append(replRecord(1, i)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := j.TruncateTo(2); err != nil {
		t.Fatalf("TruncateTo: %v", err)
	}
	if got := j.LastIndex(); got != 2 {
		t.Fatalf("LastIndex = %d after truncate, want 2", got)
	}
	// The divergent tail is gone on disk too, not just in memory.
	if err := j.Append(replRecord(2, 7)); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j2, rec := openRepl(t, dir)
	defer j2.Close()
	if len(rec.Records) != 3 {
		t.Fatalf("reopen after truncate: %d records, want 3", len(rec.Records))
	}
	if rec.Records[2].Register.Store != "store-7" {
		t.Fatalf("reopen after truncate: tail = %s, want store-7", rec.Records[2].Register.Store)
	}
}

func TestInstallSnapshot(t *testing.T) {
	dir := t.TempDir()
	j, _ := openRepl(t, dir)
	for i := 0; i < 3; i++ {
		if err := j.Append(replRecord(1, i)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	snap := &Snapshot{
		Coverage: []wire.RegisterRequest{*replRecord(4, 42).Register},
		Index:    10, Term: 4,
	}
	if err := j.InstallSnapshot(snap); err != nil {
		t.Fatalf("InstallSnapshot: %v", err)
	}
	if j.Base() != 10 || j.LastIndex() != 10 || j.LastTerm() != 4 {
		t.Fatalf("after install: base %d last %d term %d, want 10/10/4", j.Base(), j.LastIndex(), j.LastTerm())
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j2, rec := openRepl(t, dir)
	defer j2.Close()
	if rec.Snapshot == nil || rec.Snapshot.Index != 10 || len(rec.Snapshot.Coverage) != 1 {
		t.Fatalf("reopen after install: snapshot %+v", rec.Snapshot)
	}
	if len(rec.Records) != 0 || j2.LastIndex() != 10 {
		t.Fatalf("reopen after install: %d records, last %d; want 0/10", len(rec.Records), j2.LastIndex())
	}
}

// A record whose fsync has not returned is in the log, and Entries ships
// it, but SyncedIndex stays at the newest record on disk until the fsync
// returns.
func TestSyncedIndexLagsAStalledFsync(t *testing.T) {
	j, _, err := Open(t.TempDir(), Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(replRecord(1, 0)); err != nil {
		t.Fatal(err)
	}
	stalled, release := StallSync(j)
	defer release()
	done := make(chan error, 1)
	go func() { done <- j.Append(replRecord(1, 1)) }()
	<-stalled
	if last, synced := j.LastIndex(), j.SyncedIndex(); last != 2 || synced != 1 {
		t.Fatalf("during the fsync: LastIndex %d, SyncedIndex %d; want 2, 1", last, synced)
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := j.SyncedIndex(); got != 2 {
		t.Fatalf("after the fsync: SyncedIndex %d, want 2", got)
	}
}
