package replication_test

import (
	"encoding/json"
	"testing"
	"time"

	"gupster/internal/core"
	"gupster/internal/journal"
	"gupster/internal/replication"
	"gupster/internal/wire"
)

// Fuzzing the replication message handlers: whatever a (buggy or
// malicious) peer puts in a repl-* payload, the handler must neither
// panic nor corrupt the node — the journal's index invariants must hold
// and the node must still accept well-formed traffic afterwards.

// newFuzzNode builds a node with a short seeded log (3 records at term
// 1) so fuzzed appends can hit the match/conflict/truncate paths, not
// just the empty-log ones, and with leases on so a fuzzed verdict lands
// on real lease entries.
func newFuzzNode(t *testing.T) (*replication.Node, *core.MDM) {
	t.Helper()
	m := core.New(core.Config{LeaseTTL: time.Minute})
	if _, err := core.OpenDurable(m, t.TempDir(), journal.Options{NoSync: true, CompactEvery: 4}); err != nil {
		t.Fatal(err)
	}
	n, err := replication.NewNode(m, replication.Config{ID: "127.0.0.1:1", TTL: testTTL})
	if err != nil {
		t.Fatal(err)
	}
	seed := []journal.Record{
		{Term: 1, Op: journal.OpRegister, Register: &wire.RegisterRequest{Store: "s1", Address: "a", Path: "/user[@id='u']/presence"}},
		{Term: 1, Op: journal.OpRegister, Register: &wire.RegisterRequest{Store: "s2", Address: "b", Path: "/user[@id='u']/calendar"}},
		{Term: 1, Op: journal.OpUnregister, Unregister: &wire.UnregisterRequest{Store: "s1", Path: "/user[@id='u']/presence"}},
	}
	resp, err := n.HandleAppend(&replication.AppendRequest{Term: 1, LeaderID: "seed", Entries: seed})
	if err != nil || !resp.Ok {
		t.Fatalf("seeding log: %+v, %v", resp, err)
	}
	return n, m
}

// checkIntact asserts the node survived: index invariants hold and a
// well-formed append at a fresh higher term is still accepted.
func checkIntact(t *testing.T, n *replication.Node, m *core.MDM) {
	t.Helper()
	st := n.Status()
	if st.LastIndex < st.Base {
		t.Fatalf("journal invariant broken: last %d < base %d", st.LastIndex, st.Base)
	}
	if st.Term == ^uint64(0) {
		return // term saturated by fuzz input; no higher term to probe with
	}
	probe := &replication.AppendRequest{
		Term: st.Term + 1, LeaderID: "probe",
		PrevIndex: st.LastIndex,
	}
	if pt, ok := m.Journal().TermAt(st.LastIndex); ok {
		probe.PrevTerm = pt
	}
	resp, err := n.HandleAppend(probe)
	if err != nil {
		t.Fatalf("node rejects well-formed traffic after fuzz input: %v", err)
	}
	if !resp.Ok {
		t.Fatalf("well-formed heartbeat refused after fuzz input: %+v", resp)
	}
}

func FuzzReplAppend(f *testing.F) {
	seed1, _ := json.Marshal(&replication.AppendRequest{Term: 2, LeaderID: "l", PrevIndex: 3, PrevTerm: 1})
	seed2, _ := json.Marshal(&replication.AppendRequest{
		Term: 2, LeaderID: "l", PrevIndex: 3, PrevTerm: 1,
		Entries: []journal.Record{{Term: 2, Op: journal.OpRegister, Register: &wire.RegisterRequest{Store: "s9", Address: "c", Path: "/user[@id='v']/presence"}}},
	})
	seed3, _ := json.Marshal(&replication.AppendRequest{
		Term: 5, LeaderID: "l", PrevIndex: 1, PrevTerm: 1,
		Entries: []journal.Record{{Term: 5, Op: journal.OpUnregister, Unregister: &wire.UnregisterRequest{Store: "s2", Path: "/user[@id='u']/calendar"}}},
	})
	seed4, _ := json.Marshal(&replication.AppendRequest{
		Term: 2, LeaderID: "l", PrevIndex: 3, PrevTerm: 1, Quarantined: []string{"s2", "ghost", ""},
	})
	f.Add(seed1)
	f.Add(seed2)
	f.Add(seed3)
	f.Add(seed4)
	f.Add([]byte(`{"term":0,"prev_index":18446744073709551615}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req replication.AppendRequest
		if json.Unmarshal(data, &req) != nil {
			return
		}
		n, m := newFuzzNode(t)
		defer m.Close()
		_, _ = n.HandleAppend(&req)
		checkIntact(t, n, m)
	})
}

func FuzzReplVote(f *testing.F) {
	seed1, _ := json.Marshal(&replication.VoteRequest{Term: 2, CandidateID: "c", LastIndex: 3, LastTerm: 1})
	seed2, _ := json.Marshal(&replication.VoteRequest{Term: 9, CandidateID: "c", LastIndex: 0, LastTerm: 0})
	seed3, _ := json.Marshal(&replication.VoteRequest{Term: 2, CandidateID: "c", LastIndex: 3, LastTerm: 1, PreVote: true})
	f.Add(seed1)
	f.Add(seed2)
	f.Add([]byte(`{"term":18446744073709551615,"candidate_id":""}`))
	f.Add(seed3)
	f.Fuzz(func(t *testing.T, data []byte) {
		var req replication.VoteRequest
		if json.Unmarshal(data, &req) != nil {
			return
		}
		n, m := newFuzzNode(t)
		defer m.Close()
		resp, err := n.HandleVote(&req)
		if err == nil && resp.Granted {
			// A granted vote must never go to a candidate whose log is
			// behind ours (the safety rule acked records depend on).
			if req.LastTerm < 1 || (req.LastTerm == 1 && req.LastIndex < 3) {
				t.Fatalf("vote granted to stale log %d/%d", req.LastIndex, req.LastTerm)
			}
		}
		checkIntact(t, n, m)
	})
}

func FuzzReplSnapshotChunk(f *testing.F) {
	snap := &journal.Snapshot{
		Index: 10, Term: 2,
		Coverage: []wire.RegisterRequest{{Store: "s1", Address: "a", Path: "/user[@id='u']/presence"}},
	}
	data, _ := json.Marshal(snap)
	whole, _ := json.Marshal(&replication.SnapshotChunk{Term: 2, LeaderID: "l", Index: 10, SnapTerm: 2, Seq: 0, Last: true, Data: data})
	partial, _ := json.Marshal(&replication.SnapshotChunk{Term: 2, LeaderID: "l", Index: 10, SnapTerm: 2, Seq: 0, Last: false, Data: data[:8]})
	f.Add(whole)
	f.Add(partial)
	f.Add([]byte(`{"term":3,"seq":7,"last":true,"data":"bm90IGpzb24="}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req replication.SnapshotChunk
		if json.Unmarshal(data, &req) != nil {
			return
		}
		n, m := newFuzzNode(t)
		defer m.Close()
		_, _ = n.HandleSnapshotChunk(&req)
		checkIntact(t, n, m)
	})
}
