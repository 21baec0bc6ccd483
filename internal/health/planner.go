package health

import (
	"context"
	"log/slog"
	"sort"
	"time"

	"gupster/internal/shard"
	"gupster/internal/wire"
)

// PlanRepair is the pure core of auto-repair: given the current map, a
// complete state view (every constellation member, Self included as
// alive; members absent from the view count as dead), and the full member
// list, it produces the successor map.
//
// Invariants the suite property-tests:
//
//   - No plan is made while any in-map member is suspect — suspicion is
//     unresolved evidence, and acting on it would evict a node that may
//     refute a tick later. The planner waits out the confirm timeout.
//   - The planned map never names a node that is not alive in the view:
//     dead members are removed, and only alive spares are promoted.
//   - The planned map's epoch is exactly cur.Epoch+1, so every repair in
//     a lineage is strictly monotonic.
//
// Partition safety: a plan requires the alive in-map members to be a
// STRICT MAJORITY of the current map. A node that sees most of the map
// dead is more likely to be the partitioned one itself; fencing (not
// repair) is its path back.
func PlanRepair(cur wire.ShardMap, states map[string]State, members []wire.ShardInfo) (next wire.ShardMap, dead []string, ok bool) {
	if len(cur.Shards) == 0 {
		return next, nil, false
	}
	stateOf := func(id string) State {
		if s, known := states[id]; known {
			return s
		}
		return StateDead
	}
	var survivors []wire.ShardInfo
	for _, s := range cur.Shards {
		switch stateOf(s.ID) {
		case StateSuspect:
			return next, nil, false // unresolved suspicion: wait
		case StateDead:
			dead = append(dead, s.ID)
		default:
			survivors = append(survivors, s)
		}
	}
	if len(dead) == 0 {
		return next, nil, false
	}
	if len(survivors) <= len(cur.Shards)/2 {
		return next, nil, false // minority view: do not repair, fence instead
	}

	inMap := make(map[string]bool, len(cur.Shards))
	for _, s := range cur.Shards {
		inMap[s.ID] = true
	}
	var spares []wire.ShardInfo
	for _, m := range members {
		if !inMap[m.ID] && stateOf(m.ID) == StateAlive {
			spares = append(spares, m)
		}
	}
	// Lowest IDs first: every coordinator that shares the view picks the
	// same spares.
	sort.Slice(spares, func(i, j int) bool { return spares[i].ID < spares[j].ID })
	if len(spares) > len(dead) {
		spares = spares[:len(dead)]
	}

	next = wire.ShardMap{
		Version: cur.Version + 1,
		Epoch:   cur.Epoch + 1,
		Shards:  append(append([]wire.ShardInfo(nil), survivors...), spares...),
	}
	return next, dead, true
}

// maybeRepair runs after each probe round on armed agents: if this node
// is the acting coordinator and a plan exists, launch the repair.
//
// Coordination is leaderless: every agent ranks the in-map members in map
// order and only the first one it believes alive acts. A second agent
// steps up only if it believes the coordinator dead — and if two repairs
// race anyway, both carry the same (epoch, version) coordinates, the
// divergent-equal install rejection stops the second sweep, its rebalance
// errors out, and it re-plans from whatever map actually won.
func (a *Agent) maybeRepair() {
	cur := a.currentMap()
	if len(cur.Shards) == 0 {
		return
	}
	states := a.statesSnapshot()
	coord := ""
	for _, s := range cur.Shards {
		if st, known := states[s.ID]; known && st == StateAlive {
			coord = s.ID
			break
		}
	}
	if coord != a.cfg.Self.ID {
		return
	}
	next, dead, ok := PlanRepair(cur, states, a.cfg.Members)
	if !ok {
		return
	}

	a.mu.Lock()
	if a.repair || a.closed {
		a.mu.Unlock()
		return
	}
	a.repair = true
	snaps := make(map[string]wire.ShardCoverageResponse, len(dead))
	for _, id := range dead {
		if v, found := a.members[id]; found && v.snapshot != nil {
			snaps[id] = *v.snapshot
		} else {
			snaps[id] = wire.ShardCoverageResponse{}
		}
	}
	a.wg.Add(1)
	a.mu.Unlock()

	go func() {
		defer a.wg.Done()
		defer func() {
			a.mu.Lock()
			a.repair = false
			a.mu.Unlock()
		}()
		a.runRepair(cur, next, dead, snaps)
	}()
}

// statesSnapshot is the agent's complete current view, Self always alive.
func (a *Agent) statesSnapshot() map[string]State {
	states := map[string]State{a.cfg.Self.ID: StateAlive}
	a.mu.Lock()
	for id, v := range a.members {
		states[id] = v.state
	}
	a.mu.Unlock()
	return states
}

// runRepair drives the planned map through the ordinary three-phase
// rebalance, with the dead shards' slices replayed from cached snapshots.
func (a *Agent) runRepair(cur, next wire.ShardMap, dead []string, snaps map[string]wire.ShardCoverageResponse) {
	var promoted []string
	inCur := make(map[string]bool, len(cur.Shards))
	for _, s := range cur.Shards {
		inCur[s.ID] = true
	}
	for _, s := range next.Shards {
		if !inCur[s.ID] {
			promoted = append(promoted, s.ID)
		}
	}
	slog.Info("repair planned", "shard", a.cfg.Self.ID, "version", next.Version, "epoch", next.Epoch, "dead", dead, "promoted", promoted)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := shard.Rebalance(ctx, cur, next, shard.RebalanceOptions{DeadShards: snaps})
	if err != nil {
		// A racing coordinator may have won the epoch mid-sweep; the next
		// tick re-reads the installed map and re-plans on top of the winner.
		slog.Warn("repair failed", "shard", a.cfg.Self.ID, "version", next.Version, "epoch", next.Epoch, "err", err)
		return
	}
	slog.Info("repair complete", "shard", a.cfg.Self.ID, "version", next.Version, "epoch", next.Epoch, "dead", dead, "promoted", promoted)
}
