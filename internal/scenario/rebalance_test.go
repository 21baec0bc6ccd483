package scenario

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gupster/internal/coverage"
	"gupster/internal/dirclient"
	"gupster/internal/dirclient/ring"
	"gupster/internal/token"
	"gupster/internal/wire"
	"gupster/internal/xpath"
)

// replicatedRebalanceSpec is two replicated shards of three members each
// plus one replicated spare: the rebalance grows the map onto the spare.
var replicatedRebalanceSpec = RigSpec{Name: "r", Layout: LayoutSharded, Stores: 2, Users: 16,
	SizeBytes: 512, Shards: 2, SpareShards: 1, Replicas: 3, ElectionTTL: 300 * time.Millisecond}

// nextMap is the map Rig.Rebalance moves to: every shard, spares included,
// one version up.
func nextMap(rig *Rig) (old, next wire.ShardMap) {
	old = rig.Nodes[0].Node.Shard.Map()
	next = wire.ShardMap{Epoch: old.Epoch, Version: old.Version + 1}
	shards, _ := rig.Spec.shape()
	for k := range shards {
		next.Shards = append(next.Shards, rig.shardInfo(k))
	}
	return old, next
}

// waitOwnersGone polls until no member of the shards the moved owners left
// holds a registration of any of them; it fails the test past timeout.
func waitOwnersGone(t *testing.T, rig *Rig, movedFrom map[string]int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		left := ""
		for owner, k := range movedFrom {
			for _, m := range rig.members(k) {
				for _, reg := range m.Node.MDM.CoverageSnapshot() {
					if u, _ := coverage.UserOfPath(reg.Path); u == owner {
						left = fmt.Sprintf("%s still holds %s's %s", m.Addr, owner, reg.Path)
					}
				}
			}
		}
		if left == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after the fence: %s", left)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// movedOwners maps every owner whose home changes from old to next to its
// old shard's index.
func movedOwners(t *testing.T, users []string, old, next wire.ShardMap) map[string]int {
	t.Helper()
	oldRing, err := ring.Build(old)
	if err != nil {
		t.Fatal(err)
	}
	nextRing, err := ring.Build(next)
	if err != nil {
		t.Fatal(err)
	}
	moved := map[string]int{}
	for _, u := range users {
		if from := oldRing.Owner(u).ID; from != nextRing.Owner(u).ID {
			moved[u] = shardIndex(from)
		}
	}
	return moved
}

// TestChaosRebalanceReplicatedShards grows a directory of replicated shards
// onto a replicated spare under open-loop resolves: no resolve may fail,
// every member of every shard must end on the new map, and once the fence
// has reached every member no member of an old shard may still hold a moved
// owner.
func TestChaosRebalanceReplicatedShards(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a live rig")
	}
	rig, err := Build(replicatedRebalanceSpec, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()
	old, next := nextMap(rig)
	moved := movedOwners(t, rig.Users, old, next)
	if len(moved) == 0 {
		t.Fatal("the new map moves no owner; the test proves nothing")
	}
	d, err := dirclient.Dial(rig.MemberAddrs()...)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Open loop: one resolve every 2 ms, each on its own goroutine, until
	// the fence has dropped the moved owners everywhere.
	var sent, failed atomic.Int64
	stop := make(chan struct{})
	var load sync.WaitGroup
	var once sync.Once
	stopLoad := func() {
		once.Do(func() { close(stop) })
		load.Wait()
	}
	defer stopLoad()
	load.Add(1)
	go func() {
		defer load.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			u := rig.Users[i%len(rig.Users)]
			sent.Add(1)
			load.Add(1)
			go func() {
				defer load.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				if err := resolveVia(ctx, d, u, fmt.Sprintf("/user[@id='%s']/address-book", u), "referral"); err != nil {
					if failed.Add(1) <= 3 {
						t.Errorf("resolve %s: %v", u, err)
					}
				}
			}()
		}
	}()

	time.Sleep(100 * time.Millisecond)
	n, err := rig.Rebalance(context.Background())
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if n != len(moved) {
		t.Errorf("rebalance moved %d owners, want %d", n, len(moved))
	}
	waitOwnersGone(t, rig, moved, 5*time.Second)
	time.Sleep(100 * time.Millisecond)
	stopLoad()

	if f := failed.Load(); f != 0 {
		t.Errorf("%d of %d resolves failed", f, sent.Load())
	}
	for _, m := range rig.Nodes {
		if got := m.Node.Shard.Map(); got.Version != next.Version {
			t.Errorf("%s (%s) serves map v%d, want v%d", m.ID, m.Addr, got.Version, next.Version)
		}
	}
}

// TestChaosRebalanceDumpsFromTheLeader moves an owner off a shard whose
// Addr member is a follower cut off from replication: the owner's newest
// registration, acknowledged by the leader at quorum, never reached that
// member, and it must still resolve at the owner's new shard.
func TestChaosRebalanceDumpsFromTheLeader(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a live rig")
	}
	rig, err := Build(replicatedRebalanceSpec, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()
	old, next := nextMap(rig)
	var owner string
	k := -1
	for u, from := range movedOwners(t, rig.Users, old, next) {
		owner, k = u, from
		break
	}
	if k < 0 {
		t.Fatal("the new map moves no owner; the test proves nothing")
	}

	// Make the shard's Addr member a follower that knows the leader, then
	// cut it off from replication.
	addrMember := rig.members(k)[0]
	repl := addrMember.Node.Repl
	defer repl.SuspendHeartbeats(false)
	if repl.Status().Role == "leader" {
		repl.SuspendHeartbeats(true)
		waitFor(t, 20*rig.electionTTL(), "another member leads", func() bool {
			for _, m := range rig.members(k)[1:] {
				if m.Node.Repl.Status().Role == "leader" {
					return true
				}
			}
			return false
		})
		repl.SuspendHeartbeats(false)
	}
	waitFor(t, 20*rig.electionTTL(), "the Addr member follows a leader", func() bool {
		st := repl.Status()
		return st.Role == "follower" && st.LeaderAddr != "" && st.LeaderAddr != addrMember.Addr
	})
	repl.SuspendHeartbeats(true)

	path := fmt.Sprintf("/user[@id='%s']/presence", owner)
	store := coverage.StoreID(rig.Stores[0].Engine.ID())
	if err := rig.head(k).Node.MDM.Register(store, rig.Stores[0].Addr, xpath.MustParse(path)); err != nil {
		t.Fatalf("register at the leader: %v", err)
	}
	if addrMember.Node.MDM.Registry.Registered(xpath.MustParse(path), store) {
		t.Fatal("the cut-off follower received the registration")
	}

	if _, err := rig.Rebalance(context.Background()); err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	resp, err := rig.directoryFor(owner).Resolve(context.Background(), &wire.ResolveRequest{
		Path: path, Context: probeContext(owner), Verb: token.VerbFetch,
	})
	if err != nil {
		t.Fatalf("resolve %s at its new shard: %v", path, err)
	}
	if len(resp.Alternatives) == 0 || len(resp.Alternatives[0].Referrals) == 0 ||
		resp.Alternatives[0].Referrals[0].Query.Store != string(store) {
		t.Errorf("resolve %s at its new shard: %+v, want a referral to %s", path, resp.Alternatives, store)
	}
}

// waitFor polls cond until it holds; it fails the test past timeout.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within %s", what, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
