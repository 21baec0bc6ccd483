package journal_test

import (
	"context"
	"net"
	"testing"
	"time"

	"gupster/internal/core"
	"gupster/internal/journal"
	"gupster/internal/replication"
	"gupster/internal/wire"
)

// A leader ships a record before its own fsync returns, and a follower
// may ack it first. The leader's copy counts toward the quorum only once
// it is on disk: while its fsync stalls, a follower's ack alone publishes
// nothing, on the leader or the follower.
func TestLeaderPublishesNothingPastItsSyncedIndex(t *testing.T) {
	const members = 2
	var (
		lns   [members]net.Listener
		addrs [members]string
		mdms  [members]*core.MDM
		nodes [members]*replication.Node
	)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	for i := range nodes {
		m := core.New(core.Config{})
		if _, err := core.OpenMember(m, t.TempDir(), journal.Options{}); err != nil {
			t.Fatal(err)
		}
		n, err := replication.NewNode(m, replication.Config{
			ID: addrs[i], Peers: []string{addrs[1-i]}, TTL: 500 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		mdms[i], nodes[i] = m, n
		n.Start(lns[i], wire.HandlerFunc(n.Handle))
	}
	t.Cleanup(func() {
		for i := range nodes {
			_ = nodes[i].Close()
			mdms[i].Close()
		}
	})
	// The leader is ready once it has published its term-start record.
	lead := -1
	for deadline := time.Now().Add(5 * time.Second); lead < 0; time.Sleep(5 * time.Millisecond) {
		for i, n := range nodes {
			if st := n.Status(); st.Role == "leader" && mdms[i].Published() == st.LastIndex {
				lead = i
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no leader published its term-start record")
		}
	}
	lj, follower := mdms[lead].Journal(), nodes[1-lead]
	stalled, release := journal.StallSync(lj)
	defer release()

	done := make(chan error, 1)
	go func() {
		cli, err := wire.Dial(addrs[lead])
		if err != nil {
			done <- err
			return
		}
		defer cli.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- cli.Call(ctx, wire.TypeRegister, &wire.RegisterRequest{
			Store: "s1", Address: "127.0.0.1:9999", Path: "/user[@id='u0']/presence",
		}, nil)
	}()
	<-stalled
	idx := lj.LastIndex()
	// Wait for the follower to hold the record, then for two heartbeats'
	// worth of acks: none of them may publish it.
	for deadline := time.Now().Add(5 * time.Second); follower.Status().LastIndex < idx; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the follower never received record %d", idx)
		}
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		if synced := lj.SyncedIndex(); synced >= idx {
			t.Fatalf("SyncedIndex %d reached the stalled record %d", synced, idx)
		}
		for i, m := range mdms {
			if p := m.Published(); p >= idx {
				t.Fatalf("member %d published index %d while the leader's fsync of %d stalled", i, p, idx)
			}
		}
	}
	release()
	if err := <-done; err != nil {
		t.Fatalf("register once the fsync returned: %v", err)
	}
	if p := mdms[lead].Published(); p < idx {
		t.Fatalf("leader published %d after the register was acked, want ≥ %d", p, idx)
	}
}
