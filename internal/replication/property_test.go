package replication_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"gupster/internal/core"
	"gupster/internal/journal"
	"gupster/internal/replication"
	"gupster/internal/wire"
)

// genRecords produces a random mutation sequence over a small key space
// (so registers, re-registers, unregisters, and rule churn collide).
func genRecords(rng *rand.Rand, n int) []journal.Record {
	recs := make([]journal.Record, 0, n)
	for i := 0; i < n; i++ {
		user := fmt.Sprintf("u%d", rng.Intn(4))
		comp := []string{"presence", "calendar", "address-book"}[rng.Intn(3)]
		path := fmt.Sprintf("/user[@id='%s']/%s", user, comp)
		store := fmt.Sprintf("s%d", rng.Intn(3))
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			recs = append(recs, journal.Record{Op: journal.OpRegister, Register: &wire.RegisterRequest{
				Store: store, Address: fmt.Sprintf("127.0.0.1:%d", 7000+rng.Intn(3)), Path: path,
			}})
		case 5, 6:
			recs = append(recs, journal.Record{Op: journal.OpUnregister, Unregister: &wire.UnregisterRequest{
				Store: store, Path: path,
			}})
		case 7, 8:
			recs = append(recs, journal.Record{Op: journal.OpPutRule, PutRule: &wire.PutRuleRequest{
				Owner: user, Rule: wire.RulePayload{
					ID: fmt.Sprintf("r%d", rng.Intn(3)), Path: path, Effect: "permit", Cond: "role=friend",
				},
			}})
		default:
			recs = append(recs, journal.Record{Op: journal.OpDeleteRule, DeleteRule: &wire.DeleteRuleRequest{
				Owner: user, RuleID: fmt.Sprintf("r%d", rng.Intn(3)),
			}})
		}
	}
	return recs
}

// stateKey flattens an MDM's replicated state (coverage + shields) into
// a canonical string for equality checks.
func stateKey(m *core.MDM) string {
	var lines []string
	for _, reg := range m.CoverageSnapshot() {
		lines = append(lines, fmt.Sprintf("cov|%s|%s|%s", reg.Store, reg.Address, reg.Path))
	}
	for _, pr := range m.ShieldSnapshot() {
		lines = append(lines, fmt.Sprintf("rule|%s|%s|%s|%s|%s", pr.Owner, pr.Rule.ID, pr.Rule.Path, pr.Rule.Effect, pr.Rule.Cond))
	}
	sort.Strings(lines)
	out := ""
	for _, l := range lines {
		out += l + "\n"
	}
	return out
}

func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	// A background compaction may replace snapshot.json, then wal.log,
	// while this copies: copy the log first, so the snapshot copied is
	// never older than the log's head frame, and skip a temp file renamed
	// away after the listing.
	sort.SliceStable(ents, func(i, j int) bool { return ents[i].Name() == "wal.log" && ents[j].Name() != "wal.log" })
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// replayState opens a fresh MDM over a copy of a journal directory and
// returns its canonical state.
func replayState(t *testing.T, dir string) string {
	t.Helper()
	m := core.New(core.Config{})
	defer m.Close()
	if _, err := core.OpenDurable(m, dir, journal.Options{}); err != nil {
		t.Fatalf("replay OpenDurable: %v", err)
	}
	return stateKey(m)
}

// The shipping invariant: after any shipped and committed record prefix,
// the follower's live directory equals a fresh crash-recovery replay of its
// journal directory — the two paths into MDM state (streamed apply and
// snapshot+log replay) can never disagree. Also checked with a torn
// tail appended to the WAL copy: recovery truncates it back to exactly
// the shipped prefix.
func TestPropertyShippedPrefixEqualsReplay(t *testing.T) {
	var compactions uint64
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			recs := genRecords(rng, 40+rng.Intn(40))

			dir := t.TempDir()
			m := core.New(core.Config{})
			defer m.Close()
			// Small CompactEvery so some runs exercise follower-side
			// auto-compaction mid-stream too; the test fails if none does.
			if _, err := core.OpenDurable(m, dir, journal.Options{CompactEvery: 16}); err != nil {
				t.Fatal(err)
			}
			node, err := replication.NewNode(m, replication.Config{ID: "127.0.0.1:1", TTL: testTTL})
			if err != nil {
				t.Fatal(err)
			}

			// Ship the sequence in random-size batches, checking the
			// invariant at every batch boundary (each is "a prefix").
			prev := uint64(0)
			for len(recs) > 0 {
				k := 1 + rng.Intn(8)
				if k > len(recs) {
					k = len(recs)
				}
				batch := make([]journal.Record, k)
				copy(batch, recs[:k])
				for i := range batch {
					batch[i].Term = 1
				}
				recs = recs[k:]
				resp, err := node.HandleAppend(&replication.AppendRequest{
					Term: 1, LeaderID: "127.0.0.1:9",
					PrevIndex: prev, PrevTerm: termAt(prev),
					Entries: batch, LeaderCommit: prev + uint64(k),
				})
				if err != nil {
					t.Fatalf("append at %d: %v", prev, err)
				}
				if !resp.Ok {
					t.Fatalf("append refused at %d: %+v", prev, resp)
				}
				prev = resp.LastIndex

				live := stateKey(m)
				replayed := replayState(t, copyDir(t, dir))
				if live != replayed {
					t.Fatalf("prefix %d: live state != replayed state\nlive:\n%s\nreplayed:\n%s", prev, live, replayed)
				}
			}

			// Torn tail: garbage (and then a partial frame) after the last
			// durable record must be truncated by recovery, landing on the
			// same prefix state.
			want := stateKey(m)
			torn := copyDir(t, dir)
			wal := filepath.Join(torn, "wal.log")
			f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			tail := make([]byte, 1+rng.Intn(64))
			rng.Read(tail)
			if _, err := f.Write(tail); err != nil {
				t.Fatal(err)
			}
			_ = f.Close()
			if got := replayState(t, torn); got != want {
				t.Fatalf("torn-tail replay diverged\nwant:\n%s\ngot:\n%s", want, got)
			}
			compactions += m.Journal().Stats().Compactions.Load()
		})
	}
	if compactions == 0 {
		t.Fatal("no run compacted its follower's journal: the auto-compaction path went unexercised")
	}
}

func termAt(prev uint64) uint64 {
	if prev == 0 {
		return 0
	}
	return 1
}
