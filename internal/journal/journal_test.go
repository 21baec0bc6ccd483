package journal

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"gupster/internal/wire"
)

func regRecord(i int) Record {
	return Record{Op: OpRegister, Register: &wire.RegisterRequest{
		Store:   fmt.Sprintf("store-%d", i%7),
		Address: fmt.Sprintf("127.0.0.1:%d", 7000+i),
		Path:    fmt.Sprintf("/user[@id='u%d']/presence", i),
	}}
}

func randomRecord(rng *rand.Rand, i int) Record {
	switch rng.Intn(4) {
	case 0:
		return regRecord(i)
	case 1:
		return Record{Op: OpUnregister, Unregister: &wire.UnregisterRequest{
			Store: fmt.Sprintf("store-%d", i%7),
			Path:  fmt.Sprintf("/user[@id='u%d']/presence", rng.Intn(i+1)),
		}}
	case 2:
		return Record{Op: OpPutRule, PutRule: &wire.PutRuleRequest{
			Owner: fmt.Sprintf("u%d", i%5),
			Rule:  wire.RulePayload{ID: fmt.Sprintf("r%d", i), Path: "/user/presence", Effect: "permit"},
		}}
	default:
		return Record{Op: OpDeleteRule, DeleteRule: &wire.DeleteRuleRequest{
			Owner: fmt.Sprintf("u%d", i%5), RuleID: fmt.Sprintf("r%d", rng.Intn(i+1)),
		}}
	}
}

func openClean(t *testing.T, dir string, opts Options) (*Journal, *Recovered) {
	t.Helper()
	j, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j, rec
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, rec := openClean(t, dir, Options{})
	if rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh journal recovered state: %+v", rec)
	}
	var want []Record
	for i := 0; i < 20; i++ {
		r := regRecord(i)
		want = append(want, r)
		if err := j.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, rec2 := openClean(t, dir, Options{})
	defer j2.Close()
	if !reflect.DeepEqual(rec2.Records, want) {
		t.Fatalf("recovered %d records, want %d:\n got %+v", len(rec2.Records), len(want), rec2.Records)
	}
	if rec2.TornBytes != 0 {
		t.Errorf("clean log reported torn bytes: %d", rec2.TornBytes)
	}
}

// TestReplayPrefixProperty is the replay property test: truncating the WAL
// at ANY byte boundary must recover a valid directory — specifically, some
// prefix of the appended records, never a reordering, a gap, or an error.
func TestReplayPrefixProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 8; round++ {
		dir := t.TempDir()
		j, _ := openClean(t, dir, Options{CompactEvery: -1})
		n := 5 + rng.Intn(20)
		var want []Record
		for i := 0; i < n; i++ {
			r := randomRecord(rng, i)
			want = append(want, r)
			if err := j.Append(r); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		wal := filepath.Join(dir, walName)
		full, err := os.ReadFile(wal)
		if err != nil {
			t.Fatal(err)
		}
		// Try a spread of truncation points, always including 0 and len.
		cuts := []int{0, len(full)}
		for i := 0; i < 12; i++ {
			cuts = append(cuts, rng.Intn(len(full)+1))
		}
		for _, cut := range cuts {
			if err := os.WriteFile(wal, full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			j2, rec, err := Open(dir, Options{CompactEvery: -1})
			if err != nil {
				t.Fatalf("cut=%d: Open: %v", cut, err)
			}
			if len(rec.Records) > len(want) {
				t.Fatalf("cut=%d: recovered more records than written", cut)
			}
			for i, r := range rec.Records {
				if !reflect.DeepEqual(r, want[i]) {
					t.Fatalf("cut=%d: recovered records are not a prefix (diverge at %d)", cut, i)
				}
			}
			// After recovery the log must be append-clean: a re-open
			// recovers exactly the same records with no torn bytes.
			if err := j2.Close(); err != nil {
				t.Fatal(err)
			}
			j3, rec3, err := Open(dir, Options{CompactEvery: -1})
			if err != nil {
				t.Fatalf("cut=%d: second Open: %v", cut, err)
			}
			if rec3.TornBytes != 0 || !reflect.DeepEqual(rec3.Records, rec.Records) {
				t.Fatalf("cut=%d: second recovery differs (torn=%d)", cut, rec3.TornBytes)
			}
			j3.Close()
		}
	}
}

// TestTornTailTruncatedAndCorrupted covers the two crash signatures: a
// half-written record (short payload) and a bit-flipped one (CRC
// mismatch). Both must be dropped and physically truncated.
func TestTornTailTruncatedAndCorrupted(t *testing.T) {
	for _, mode := range []string{"short", "crc", "garbage-length"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			j, _ := openClean(t, dir, Options{})
			var want []Record
			for i := 0; i < 5; i++ {
				r := regRecord(i)
				want = append(want, r)
				if err := j.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			j.Close()

			wal := filepath.Join(dir, walName)
			full, err := os.ReadFile(wal)
			if err != nil {
				t.Fatal(err)
			}
			switch mode {
			case "short":
				// Append a header promising more payload than exists.
				full = append(full, 0x00, 0x00, 0x01, 0x00, 0xde, 0xad, 0xbe, 0xef, 'x', 'y')
			case "crc":
				// Append a whole frame whose CRC is wrong.
				full = append(full, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, '{', '}')
			case "garbage-length":
				full = append(full, 0xff, 0xff, 0xff, 0xff, 0x01, 0x02, 0x03, 0x04)
			}
			if err := os.WriteFile(wal, full, 0o644); err != nil {
				t.Fatal(err)
			}

			j2, rec, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("Open over torn tail: %v", err)
			}
			defer j2.Close()
			if !reflect.DeepEqual(rec.Records, want) {
				t.Fatalf("recovered %d records, want %d", len(rec.Records), len(want))
			}
			if rec.TornBytes == 0 {
				t.Error("torn tail not reported")
			}
			// The tail must be physically gone so new appends extend a
			// clean log.
			if err := j2.Append(regRecord(99)); err != nil {
				t.Fatal(err)
			}
			j2.Close()
			j3, rec3, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer j3.Close()
			if len(rec3.Records) != len(want)+1 || rec3.TornBytes != 0 {
				t.Fatalf("post-truncate log unclean: %d records, torn=%d", len(rec3.Records), rec3.TornBytes)
			}
		})
	}
}

func TestCompactionSnapshotsAndTruncates(t *testing.T) {
	dir := t.TempDir()
	j, _ := openClean(t, dir, Options{CompactEvery: 4})
	// The snapshot callback models a directory that retains only the last
	// registration per store.
	var mu sync.Mutex
	state := map[string]wire.RegisterRequest{}
	j.SetSnapshotFunc(func() Snapshot {
		mu.Lock()
		defer mu.Unlock()
		s := Snapshot{Index: j.LastIndex()}
		for _, r := range state {
			s.Coverage = append(s.Coverage, r)
		}
		return s
	})
	for i := 0; i < 10; i++ {
		r := regRecord(i)
		mu.Lock()
		state[r.Register.Store] = *r.Register
		mu.Unlock()
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := j.Stats().Compactions.Load(); got == 0 {
		t.Fatal("no compaction after passing CompactEvery")
	}
	info, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	// 10 appends with CompactEvery=4: the log was truncated at least
	// twice, so it holds far fewer than 10 records.
	if info.Size() > 4*256 {
		t.Errorf("log not compacted: %d bytes", info.Size())
	}
	j.Close()

	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot == nil || len(rec.Snapshot.Coverage) == 0 {
		t.Fatal("no snapshot recovered after compaction")
	}
	// Snapshot + remaining records must cover every store seen.
	stores := map[string]bool{}
	for _, c := range rec.Snapshot.Coverage {
		stores[c.Store] = true
	}
	for _, r := range rec.Records {
		if r.Register != nil {
			stores[r.Register.Store] = true
		}
	}
	if len(stores) != 7 {
		t.Errorf("recovered %d stores, want 7", len(stores))
	}
}

func TestConcurrentAppendsGroupCommit(t *testing.T) {
	dir := t.TempDir()
	j, _ := openClean(t, dir, Options{})
	const writers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := j.Append(regRecord(w*per + i)); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	syncs := j.Stats().Syncs.Load()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(dir, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != writers*per {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), writers*per)
	}
	t.Logf("group commit: %d appends in %d fsyncs", writers*per, syncs)
}

func TestAppendAfterCloseFails(t *testing.T) {
	j, _ := openClean(t, t.TempDir(), Options{})
	j.Close()
	if err := j.Append(regRecord(0)); err != ErrClosed {
		t.Fatalf("Append after Close: %v", err)
	}
}

// A large directory compacts once per snapshot's worth of records, not
// once per CompactEvery: with E snapshot entries and CompactEvery well
// below E, N appends cost at most N/E + 1 compactions, and a reopen
// replays at most 2·E records.
func TestCompactionWorkFollowsTheLog(t *testing.T) {
	const (
		entries = 5000
		every   = 64
		n       = 20000
	)
	dir := t.TempDir()
	j, _ := openClean(t, dir, Options{NoSync: true, CompactEvery: every})
	var snap Snapshot
	for i := 0; i < entries; i++ {
		snap.Coverage = append(snap.Coverage, *regRecord(i).Register)
	}
	j.SetSnapshotFunc(func() Snapshot {
		s := snap
		s.Index = j.LastIndex()
		return s
	})
	for i := 0; i < n; i++ {
		if err := j.Append(regRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	threshold := max(every, entries)
	if got, limit := j.Stats().Compactions.Load(), uint64(n/threshold+1); got > limit {
		t.Fatalf("%d compactions over %d appends, want at most %d", got, n, limit)
	}

	j2, rec := openClean(t, dir, Options{NoSync: true, CompactEvery: every})
	defer j2.Close()
	if rec.Snapshot == nil || len(rec.Snapshot.Coverage) != entries {
		t.Fatal("reopen: no snapshot of the directory")
	}
	if got := len(rec.Records); got > 2*threshold {
		t.Fatalf("reopen replays %d records, want at most %d", got, 2*threshold)
	}
}
