package health

import (
	"fmt"
	"math/rand"
	"testing"

	"gupster/internal/dirclient/ring"
	"gupster/internal/shard"
	"gupster/internal/wire"
)

// TestPlanRepairProperties checks the planner's invariants against an
// independent oracle over thousands of random (map, state-view, member)
// configurations:
//
//   - a plan never names a node that is not alive in the view,
//   - no plan is made while any in-map member is suspect,
//   - no plan is made without a strict alive majority of the current map,
//   - a plan's epoch is exactly cur.Epoch+1 (and version cur.Version+1),
//   - spares are promoted lowest-ID-first, at most one per dead shard.
func TestPlanRepairProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 4000; iter++ {
		nMembers := 1 + rng.Intn(7)
		members := make([]wire.ShardInfo, nMembers)
		for i := range members {
			id := fmt.Sprintf("m%d", i)
			members[i] = wire.ShardInfo{ID: id, Addr: "addr:" + id}
		}
		mapSize := 1 + rng.Intn(nMembers)
		cur := wire.ShardMap{
			Version: uint64(1 + rng.Intn(5)),
			Epoch:   uint64(rng.Intn(4)),
			Shards:  append([]wire.ShardInfo(nil), members[:mapSize]...),
		}
		states := make(map[string]State)
		for _, m := range members {
			if rng.Intn(8) == 0 {
				continue // absent from the view: counts as dead
			}
			states[m.ID] = State(rng.Intn(3))
		}

		// Independent oracle.
		stateOf := func(id string) State {
			if s, known := states[id]; known {
				return s
			}
			return StateDead
		}
		wantSuspect, wantDead, wantAlive := 0, 0, 0
		for _, s := range cur.Shards {
			switch stateOf(s.ID) {
			case StateSuspect:
				wantSuspect++
			case StateDead:
				wantDead++
			default:
				wantAlive++
			}
		}
		shouldPlan := wantSuspect == 0 && wantDead > 0 && wantAlive > len(cur.Shards)/2

		next, dead, ok := PlanRepair(cur, states, members)
		if ok != shouldPlan {
			t.Fatalf("iter %d: PlanRepair ok=%v, oracle says %v (map %d shards: %d alive / %d suspect / %d dead)",
				iter, ok, shouldPlan, len(cur.Shards), wantAlive, wantSuspect, wantDead)
		}
		if !ok {
			continue
		}
		if next.Epoch != cur.Epoch+1 || next.Version != cur.Version+1 {
			t.Fatalf("iter %d: plan at v%d@e%d from v%d@e%d, want exactly one bump of each",
				iter, next.Version, next.Epoch, cur.Version, cur.Epoch)
		}
		if len(dead) != wantDead {
			t.Fatalf("iter %d: plan reports %d dead, oracle counts %d", iter, len(dead), wantDead)
		}
		deadSet := make(map[string]bool, len(dead))
		for _, id := range dead {
			deadSet[id] = true
		}
		promoted := 0
		inCur := make(map[string]bool, len(cur.Shards))
		for _, s := range cur.Shards {
			inCur[s.ID] = true
		}
		for _, s := range next.Shards {
			if stateOf(s.ID) != StateAlive {
				t.Fatalf("iter %d: planned map names %s, which is %s", iter, s.ID, stateOf(s.ID))
			}
			if deadSet[s.ID] {
				t.Fatalf("iter %d: planned map retains dead shard %s", iter, s.ID)
			}
			if !inCur[s.ID] {
				promoted++
			}
		}
		if promoted > wantDead {
			t.Fatalf("iter %d: promoted %d spares for %d dead shards", iter, promoted, wantDead)
		}
		if len(next.Shards) != wantAlive+promoted {
			t.Fatalf("iter %d: planned map has %d shards, want %d survivors + %d spares",
				iter, len(next.Shards), wantAlive, promoted)
		}
	}
}

// A repair lineage — repeated plans under an arbitrary kill schedule —
// must carry strictly increasing (epoch, version) coordinates, and a node
// fed that lineage in ANY order must converge on its maximum: the
// property that makes replayed stale maps harmless.
func TestRepairLineageEpochsMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	members := make([]wire.ShardInfo, 8)
	for i := range members {
		id := fmt.Sprintf("m%d", i)
		members[i] = wire.ShardInfo{ID: id, Addr: "addr:" + id}
	}
	cur := wire.ShardMap{Version: 1, Shards: append([]wire.ShardInfo(nil), members[:4]...)}
	lineage := []wire.ShardMap{cur}

	for round := 0; round < 24; round++ {
		states := make(map[string]State, len(members))
		for _, m := range members {
			states[m.ID] = StateAlive
		}
		// Kill one or two in-map members; the rest of the fleet restarts
		// between rounds and is promotion-eligible again.
		kills := 1 + rng.Intn(2)
		for i := 0; i < kills; i++ {
			states[cur.Shards[rng.Intn(len(cur.Shards))].ID] = StateDead
		}
		next, _, ok := PlanRepair(cur, states, members)
		if !ok {
			continue // double-kill of the same shard, or majority lost
		}
		if ring.Compare(next, cur) <= 0 {
			t.Fatalf("round %d: plan v%d@e%d does not outrank v%d@e%d",
				round, next.Version, next.Epoch, cur.Version, cur.Epoch)
		}
		if next.Epoch != cur.Epoch+1 {
			t.Fatalf("round %d: epoch jumped %d → %d", round, cur.Epoch, next.Epoch)
		}
		lineage = append(lineage, next)
		cur = next
	}
	if len(lineage) < 10 {
		t.Fatalf("kill schedule produced only %d repairs — widen it", len(lineage))
	}

	final := lineage[len(lineage)-1]
	shuffled := append([]wire.ShardMap(nil), lineage...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	n := shard.NewNode(shard.NodeConfig{ShardID: "m0"})
	defer n.Close()
	for _, m := range shuffled {
		_, _ = n.Install(&wire.ShardInstallRequest{Map: m}) // stale replays refused
	}
	got := n.Ring().Map()
	if ring.Compare(got, final) != 0 {
		t.Fatalf("node converged on v%d@e%d, want the lineage maximum v%d@e%d",
			got.Version, got.Epoch, final.Version, final.Epoch)
	}
}
