package ring

import (
	"fmt"
	"math/rand"
	"testing"

	"gupster/internal/wire"
)

// Property: for any valid shard map, routing is a total partition of the
// owner keyspace — every owner maps to exactly one shard, that shard is a
// member of the map, and the answer is stable across repeated lookups.
func TestShardRoutingIsTotalPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		nShards := 1 + rng.Intn(12)
		m := wire.ShardMap{Version: 1 + uint64(rng.Intn(1000))}
		members := make(map[string]bool, nShards)
		for i := 0; i < nShards; i++ {
			id := fmt.Sprintf("shard-%d-%d", trial, i)
			m.Shards = append(m.Shards, wire.ShardInfo{ID: id, Addr: "addr:" + id})
			members[id] = true
		}
		r, err := Build(m)
		if err != nil {
			t.Fatalf("trial %d: Build: %v", trial, err)
		}
		for i := 0; i < 500; i++ {
			owner := randOwner(rng)
			first := r.Owner(owner)
			if !members[first.ID] {
				t.Fatalf("trial %d: owner %q routed to %q, which is not in the map", trial, owner, first.ID)
			}
			if again := r.Owner(owner); again.ID != first.ID {
				t.Fatalf("trial %d: owner %q routed to %q then %q — lookup not stable", trial, owner, first.ID, again.ID)
			}
		}
	}
}

func randOwner(rng *rand.Rand) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789.-_@"
	n := 1 + rng.Intn(24)
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// FuzzShardMap feeds arbitrary shard maps to the ring builder: it must
// either reject the map or produce a ring that routes any owner to a map
// member — never panic, never route into the void.
func FuzzShardMap(f *testing.F) {
	f.Add(uint64(1), "a\x00addr-a", "owner")
	f.Add(uint64(7), "a\x00x\x1fb\x00y\x1fc\x00z", "alice")
	f.Add(uint64(0), "", "")
	f.Add(uint64(2), "dup\x00x\x1fdup\x00y", "bob")
	f.Fuzz(func(t *testing.T, version uint64, packed string, owner string) {
		m := wire.ShardMap{Version: version}
		for _, entry := range splitPacked(packed) {
			m.Shards = append(m.Shards, entry)
		}
		r, err := Build(m)
		if err != nil {
			return // rejected: fine, as long as it didn't panic
		}
		members := make(map[string]bool, len(m.Shards))
		for _, s := range m.Shards {
			members[s.ID] = true
		}
		got := r.Owner(owner)
		if !members[got.ID] {
			t.Fatalf("owner %q routed to %q, not a member of the accepted map %+v", owner, got.ID, m)
		}
		if r.Owner(owner).ID != got.ID {
			t.Fatalf("owner %q routing unstable", owner)
		}
	})
}

// splitPacked decodes "id\x00addr\x1fid\x00addr..." into shard infos,
// letting the fuzzer shape arbitrary maps from flat strings.
func splitPacked(packed string) []wire.ShardInfo {
	if packed == "" {
		return nil
	}
	var out []wire.ShardInfo
	start := 0
	emit := func(entry string) {
		id, addr := entry, ""
		for i := 0; i < len(entry); i++ {
			if entry[i] == 0 {
				id, addr = entry[:i], entry[i+1:]
				break
			}
		}
		out = append(out, wire.ShardInfo{ID: id, Addr: addr})
	}
	for i := 0; i < len(packed); i++ {
		if packed[i] == 0x1f {
			emit(packed[start:i])
			start = i + 1
		}
	}
	emit(packed[start:])
	return out
}
