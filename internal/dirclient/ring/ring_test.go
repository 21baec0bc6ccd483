package ring

import (
	"fmt"
	"testing"

	"gupster/internal/wire"
)

func mapOf(version uint64, ids ...string) wire.ShardMap {
	m := wire.ShardMap{Version: version}
	for _, id := range ids {
		m.Shards = append(m.Shards, wire.ShardInfo{ID: id, Addr: "addr-" + id})
	}
	return m
}

func TestBuildRingValidation(t *testing.T) {
	cases := []struct {
		name string
		m    wire.ShardMap
	}{
		{"unversioned", mapOf(0, "a")},
		{"empty", mapOf(3)},
		{"blank id", wire.ShardMap{Version: 1, Shards: []wire.ShardInfo{{ID: "", Addr: "x"}}}},
		{"blank addr", wire.ShardMap{Version: 1, Shards: []wire.ShardInfo{{ID: "a"}}}},
		{"duplicate id", wire.ShardMap{Version: 1, Shards: []wire.ShardInfo{
			{ID: "a", Addr: "x"}, {ID: "a", Addr: "y"},
		}}},
	}
	for _, tc := range cases {
		if _, err := Build(tc.m); err == nil {
			t.Errorf("%s: Build accepted an invalid map", tc.name)
		}
	}
	if _, err := Build(mapOf(1, "a")); err != nil {
		t.Fatalf("one-shard map rejected: %v", err)
	}
}

// Two rings built from the same map must route every owner identically —
// the whole scheme rests on "which shard owns alice" being a pure
// function of the map.
func TestRingDeterministic(t *testing.T) {
	m := mapOf(7, "a", "b", "c", "d")
	r1, err := Build(m)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Build(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		owner := fmt.Sprintf("user-%d", i)
		if got, want := r2.Owner(owner).ID, r1.Owner(owner).ID; got != want {
			t.Fatalf("owner %q routes to %q on one ring and %q on its twin", owner, got, want)
		}
	}
	// Shard order in the map must not matter either.
	r3, err := Build(wire.ShardMap{Version: 7, Shards: []wire.ShardInfo{
		{ID: "d", Addr: "addr-d"}, {ID: "b", Addr: "addr-b"},
		{ID: "a", Addr: "addr-a"}, {ID: "c", Addr: "addr-c"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		owner := fmt.Sprintf("user-%d", i)
		if got, want := r3.Owner(owner).ID, r1.Owner(owner).ID; got != want {
			t.Fatalf("owner %q routes differently when the map lists shards in another order: %q vs %q", owner, got, want)
		}
	}
}

// The ring should spread owners roughly evenly: with 64 virtual points
// per shard no shard should see more than ~2x its fair share.
func TestRingDistribution(t *testing.T) {
	const owners = 20000
	for _, shards := range []int{2, 4, 8} {
		ids := make([]string, shards)
		for i := range ids {
			ids[i] = fmt.Sprintf("s%d", i)
		}
		r, err := Build(mapOf(1, ids...))
		if err != nil {
			t.Fatal(err)
		}
		counts := make(map[string]int)
		for i := 0; i < owners; i++ {
			counts[r.Owner(fmt.Sprintf("user-%d", i)).ID]++
		}
		fair := owners / shards
		for id, got := range counts {
			if got > 2*fair || got < fair/3 {
				t.Errorf("%d shards: shard %s holds %d owners (fair share %d) — distribution too skewed", shards, id, got, fair)
			}
		}
		if len(counts) != shards {
			t.Errorf("%d shards: only %d received owners", shards, len(counts))
		}
	}
}

// Adding one shard must only move owners TO the new shard: an owner that
// stays in the old shard set keeps its home. This is the property that
// makes rebalances cheap (only the new shard's slice migrates).
func TestRingMinimalMovement(t *testing.T) {
	old, err := Build(mapOf(1, "a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	next, err := Build(mapOf(2, "a", "b", "c", "d"))
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < 10000; i++ {
		owner := fmt.Sprintf("user-%d", i)
		was, is := old.Owner(owner).ID, next.Owner(owner).ID
		if was != is {
			if is != "d" {
				t.Fatalf("owner %q moved %s→%s although only shard d joined", owner, was, is)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no owner moved to the joining shard")
	}
	if moved > 10000/2 {
		t.Fatalf("%d of 10000 owners moved for one joining shard — far beyond its fair slice", moved)
	}
}
