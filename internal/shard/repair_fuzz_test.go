package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"gupster/internal/dirclient/ring"
	"gupster/internal/wire"
)

// FuzzRepairEpoch throws arbitrary install schedules — random (epoch,
// version) coordinates, shard sets and install modes — at a node and
// checks the epoch-fencing invariant: the installed map's (epoch,
// version) never moves backwards, an accepted install lands exactly the
// offered coordinates, and a rejected one leaves the ring untouched.
// This is the property that keeps a partitioned minority from rewinding
// routing when it replays a stale map after the heal.
func FuzzRepairEpoch(f *testing.F) {
	f.Add(int64(1), uint8(16))
	f.Add(int64(42), uint8(48))
	f.Add(int64(-7), uint8(3))
	f.Add(int64(1<<40), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := NewNode(NodeConfig{ShardID: "s0"})
		defer n.Close()
		modes := []string{"", "fence", "handoff"}
		var prev wire.ShardMap
		havePrev := false
		for i := 0; i < int(steps%64); i++ {
			m := wire.ShardMap{
				Version: uint64(1 + rng.Intn(6)),
				Epoch:   uint64(rng.Intn(6)),
			}
			nShards := 1 + rng.Intn(4)
			for j := 0; j < nShards; j++ {
				id := fmt.Sprintf("s%d", j)
				m.Shards = append(m.Shards, wire.ShardInfo{ID: id, Addr: "addr:" + id})
			}
			_, err := n.Install(&wire.ShardInstallRequest{Map: m, Mode: modes[rng.Intn(len(modes))]})
			held := n.Ring()
			if held == nil {
				t.Fatalf("step %d: no ring after an install attempt (first install must succeed)", i)
			}
			cur := held.Map()
			if havePrev && ring.Compare(cur, prev) < 0 {
				t.Fatalf("step %d: ring went backwards: held v%d@e%d, now v%d@e%d",
					i, prev.Version, prev.Epoch, cur.Version, cur.Epoch)
			}
			if err == nil && (cur.Epoch != m.Epoch || cur.Version != m.Version) {
				t.Fatalf("step %d: accepted install of v%d@e%d but ring holds v%d@e%d",
					i, m.Version, m.Epoch, cur.Version, cur.Epoch)
			}
			if err != nil && havePrev && ring.Compare(cur, prev) != 0 {
				t.Fatalf("step %d: rejected install still changed the ring", i)
			}
			prev, havePrev = cur, true
		}
	})
}

// The divergent-equal rule: a map with the same (epoch, version) but
// different content is a split-brain artifact and must be refused, while
// identical content re-installs freely (a rebalance installs one map in
// handoff, then fences with it).
func TestInstallRejectsDivergentEqualMap(t *testing.T) {
	n := NewNode(NodeConfig{ShardID: "a"})
	defer n.Close()
	base := wire.ShardMap{Version: 3, Epoch: 2, Shards: []wire.ShardInfo{
		{ID: "a", Addr: "addr:a"}, {ID: "b", Addr: "addr:b"},
	}}
	if _, err := n.Install(&wire.ShardInstallRequest{Map: base}); err != nil {
		t.Fatalf("base install: %v", err)
	}
	if _, err := n.Install(&wire.ShardInstallRequest{Map: base}); err != nil {
		t.Fatalf("identical re-install refused: %v", err)
	}
	divergent := wire.ShardMap{Version: 3, Epoch: 2, Shards: []wire.ShardInfo{
		{ID: "a", Addr: "addr:a"}, {ID: "c", Addr: "addr:c"},
	}}
	if _, err := n.Install(&wire.ShardInstallRequest{Map: divergent}); err == nil {
		t.Fatal("node accepted a divergent map at the same (epoch, version)")
	}
	// Epoch outranks version: e3 wins over any version at e2…
	newer := wire.ShardMap{Version: 1, Epoch: 3, Shards: []wire.ShardInfo{{ID: "a", Addr: "addr:a"}}}
	if _, err := n.Install(&wire.ShardInstallRequest{Map: newer}); err != nil {
		t.Fatalf("higher-epoch install refused: %v", err)
	}
	// …and the fenced-out epoch cannot come back, whatever its version.
	stale := wire.ShardMap{Version: 99, Epoch: 2, Shards: []wire.ShardInfo{{ID: "a", Addr: "addr:a"}}}
	if _, err := n.Install(&wire.ShardInstallRequest{Map: stale}); err == nil {
		t.Fatal("node accepted a stale-epoch map with a high version")
	}
}
