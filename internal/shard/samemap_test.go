package shard

import (
	"testing"

	"gupster/internal/wire"
)

func TestSameMapContent(t *testing.T) {
	base := func() wire.ShardMap {
		return wire.ShardMap{Version: 2, Epoch: 1, Shards: []wire.ShardInfo{
			{ID: "a", Addr: "127.0.0.1:7000", Members: []string{"127.0.0.1:7000", "127.0.0.1:7001"}},
			{ID: "b", Addr: "127.0.0.1:7100"},
		}}
	}
	for _, c := range []struct {
		name string
		edit func(m *wire.ShardMap)
		same bool
	}{
		{"identical", func(*wire.ShardMap) {}, true},
		{"nil vs empty members", func(m *wire.ShardMap) { m.Shards[1].Members = []string{} }, true},
		{"reordered members", func(m *wire.ShardMap) {
			m.Shards[0].Members = []string{"127.0.0.1:7001", "127.0.0.1:7000"}
		}, false},
		{"changed address", func(m *wire.ShardMap) { m.Shards[1].Addr = "127.0.0.1:7101" }, false},
		{"extra shard", func(m *wire.ShardMap) {
			m.Shards = append(m.Shards, wire.ShardInfo{ID: "c", Addr: "127.0.0.1:7200"})
		}, false},
	} {
		m := base()
		c.edit(&m)
		if got := sameMapContent(base(), m); got != c.same {
			t.Errorf("%s: sameMapContent = %t, want %t", c.name, got, c.same)
		}
		if got := sameMapContent(m, base()); got != c.same {
			t.Errorf("%s, swapped: sameMapContent = %t, want %t", c.name, got, c.same)
		}
	}
}
