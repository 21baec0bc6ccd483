package main

import (
	"testing"

	"gupster/internal/dirclient/ring"
	"gupster/internal/wire"
)

// A rebalance after an auto-repair must still supersede the live map: the
// repair bumped its epoch, and a new map at epoch 0 would rank older.
func TestNextMapKeepsTheLiveEpoch(t *testing.T) {
	old := wire.ShardMap{Epoch: 2, Version: 5, Shards: []wire.ShardInfo{{ID: "s1", Addr: "a:1"}}}
	next, err := nextMap(old, "s1=a:1,s2=b:1|b:2")
	if err != nil {
		t.Fatal(err)
	}
	if next.Epoch != old.Epoch || next.Version != old.Version+1 {
		t.Errorf("next map is v%d@e%d, want v%d@e%d", next.Version, next.Epoch, old.Version+1, old.Epoch)
	}
	if ring.Compare(next, old) <= 0 {
		t.Error("next map does not supersede the live one")
	}
	if len(next.Shards) != 2 || len(next.Shards[1].Members) != 2 {
		t.Errorf("next map shards = %+v, want s1 and s2 with two members", next.Shards)
	}
}
