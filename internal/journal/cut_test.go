package journal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"gupster/internal/wire"
)

// stallSnapshot makes j's next snapshot write stop just before its rename
// until release is closed; entered is closed when it stops. Any other
// file replace returns walErr.
func stallSnapshot(j *Journal, walErr error) (entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	j.beforeRename = func(name string) error {
		if name != snapName {
			return walErr
		}
		once.Do(func() { close(entered) })
		<-release
		return nil
	}
	return entered, release
}

// A crash after a compaction renamed its snapshot but before it replaced
// the log leaves the new snapshot beside the old log. Reopening must
// number the old log from its head frame and drop what the snapshot
// covers, not stack the whole old log on top of the snapshot's index.
func TestCrashBetweenSnapshotAndLogReplace(t *testing.T) {
	dir := t.TempDir()
	j, _ := openRepl(t, dir)
	var cov []wire.RegisterRequest
	for i := 0; i < 4; i++ {
		if err := j.Append(replRecord(1, i)); err != nil {
			t.Fatal(err)
		}
		cov = append(cov, *replRecord(1, i).Register)
	}
	j.SetSnapshotFunc(func() Snapshot { return Snapshot{Coverage: cov} })
	crash := errors.New("crash before the log replace")
	entered, release := stallSnapshot(j, crash)
	done := make(chan error, 1)
	go func() { done <- j.Compact() }()
	<-entered
	// Records 5..7 land in the old log while snapshot 4 is being written.
	for i := 4; i < 7; i++ {
		if err := j.Append(replRecord(2, i)); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	if err := <-done; !errors.Is(err, crash) {
		t.Fatalf("Compact = %v, want the injected crash", err)
	}
	_ = j.Close() // poisoned by the failed replace

	j2, rec := openRepl(t, dir)
	defer j2.Close()
	if j2.Base() != 4 || j2.LastIndex() != 7 {
		t.Fatalf("reopen: base %d last %d, want 4/7", j2.Base(), j2.LastIndex())
	}
	if rec.Snapshot == nil || rec.Snapshot.Index != 4 || len(rec.Snapshot.Coverage) != 4 {
		t.Fatalf("reopen: snapshot %+v, want index 4 with 4 registrations", rec.Snapshot)
	}
	if len(rec.Records) != 3 {
		t.Fatalf("reopen: %d records to replay, want 3", len(rec.Records))
	}
	for k, r := range rec.Records {
		if want := replRecord(2, 4+k); !reflect.DeepEqual(r, want) {
			t.Fatalf("record %d = %+v, want %+v", 5+k, r, want)
		}
	}
	if term, ok := j2.TermAt(5); !ok || term != 2 {
		t.Fatalf("TermAt(5) = %d,%v; want 2,true", term, ok)
	}
	// The records the snapshot covers are the retained tail.
	if recs, first, err := j2.Entries(2); err != nil || first != 3 || len(recs) != 5 {
		t.Fatalf("Entries(2) = %d records from %d, err %v; want 5 from 3", len(recs), first, err)
	}
}

// An Append issued while a compaction writes its snapshot returns before
// that write ends: the write runs outside j.mu.
func TestAppendDuringSnapshotWriteDoesNotWait(t *testing.T) {
	j, _ := openClean(t, t.TempDir(), Options{CompactEvery: -1})
	defer j.Close()
	if err := j.Append(regRecord(0)); err != nil {
		t.Fatal(err)
	}
	j.SetSnapshotFunc(func() Snapshot { return Snapshot{} })
	entered, release := stallSnapshot(j, nil)
	done := make(chan error, 1)
	go func() { done <- j.Compact() }()
	<-entered

	appended := make(chan error, 1)
	go func() { appended <- j.Append(regRecord(1)) }()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("an Append waited for a compaction's snapshot write")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if j.Base() != 1 || j.LastIndex() != 2 {
		t.Fatalf("after compaction: base %d last %d, want 1/2", j.Base(), j.LastIndex())
	}
}

// The append that crosses CompactEvery hands the compaction to the
// journal's goroutine and returns before its snapshot is written; Close
// waits for that compaction.
func TestCrossingAppendDoesNotWaitForCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _ := openClean(t, dir, Options{CompactEvery: 4})
	j.SetSnapshotFunc(func() Snapshot { return Snapshot{} })
	entered, release := stallSnapshot(j, nil)

	returned := make(chan error, 1)
	go func() {
		_, err := j.AppendBatch([]Record{regRecord(0), regRecord(1), regRecord(2), regRecord(3)})
		returned <- err
	}()
	select {
	case err := <-returned:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("the append that crossed CompactEvery waited for its compaction")
	}
	<-entered
	if n := j.Stats().Compactions.Load(); n != 0 {
		t.Fatalf("%d compactions finished while the snapshot write was stalled", n)
	}
	close(release)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if n := j.Stats().Compactions.Load(); n != 1 {
		t.Fatalf("Close returned with %d compactions done, want 1", n)
	}
	_, rec := openClean(t, dir, Options{CompactEvery: -1})
	if rec.Snapshot == nil || rec.Snapshot.Index != 4 || len(rec.Records) != 0 {
		t.Fatalf("reopen: snapshot %+v with %d records, want index 4 and none", rec.Snapshot, len(rec.Records))
	}
}

// testdata/frameless is a journal directory written by the code before
// the log had a head frame: snapshot 5 (term 2) and three records after
// it, at terms 2, 3, 3. It opens to the same snapshot, records and
// indices that code recovered — twice, so the framed log the first Open
// writes reads back the same.
func TestFramelessLogFromBeforeTheHeadFrame(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{snapName, walName} {
		data, err := os.ReadFile(filepath.Join("testdata", "frameless", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 2; round++ {
		j, rec := openRepl(t, dir)
		if j.Base() != 5 || j.LastIndex() != 8 || j.LastTerm() != 3 {
			t.Fatalf("round %d: base %d last %d term %d, want 5/8/3", round, j.Base(), j.LastIndex(), j.LastTerm())
		}
		if s := rec.Snapshot; s == nil || s.Index != 5 || s.Term != 2 || len(s.Coverage) != 4 || len(s.Shields) != 1 {
			t.Fatalf("round %d: snapshot %+v", round, rec.Snapshot)
		}
		var got []string
		for _, r := range rec.Records {
			got = append(got, r.Op)
		}
		if want := []string{OpUnregister, OpRegister, OpPutRule}; !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: records %v, want %v", round, got, want)
		}
		if term, _ := j.TermAt(6); term != 2 {
			t.Fatalf("round %d: TermAt(6) = %d, want 2", round, term)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
