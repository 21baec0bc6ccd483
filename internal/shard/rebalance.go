package shard

import (
	"context"
	"fmt"
	"log/slog"

	"gupster/internal/coverage"
	"gupster/internal/dirclient"
	"gupster/internal/dirclient/ring"
	"gupster/internal/wire"
)

// RebalanceOptions parameterizes a live rebalance.
type RebalanceOptions struct {
	// DeadShards names source shards that are confirmed dead, keyed by
	// shard ID, each with the coordinator's last cached coverage snapshot.
	// A dead source is never dialed: its installs are skipped and its
	// moved owners are replayed from the snapshot instead of a live dump.
	// This is the auto-repair entry point — the rebalance machinery is
	// identical, only the source of truth for the dead slice changes.
	DeadShards map[string]wire.ShardCoverageResponse
}

// Rebalance moves the directory from shard map old to shard map next
// without dropping in-flight resolves: handoff, copy, fence.
//
//  1. Every shard in next that is not in old adopts the map outright (it
//     holds no owners yet, so there is nothing to hand off).
//  2. Every shard in old installs next in "handoff" mode: it keeps
//     serving reads, subscribes and change notices for owners it just lost
//     (its replica is still the complete one) and holds their mutations.
//     The coordinator then takes each source's coverage dump from its
//     leader, which holds every write the shard acknowledged, and replays
//     each moved owner's coverage registrations and shield rules to the
//     owner's new home over its normal durable mutation path.
//  3. Every shard in old installs next in "fence" mode: it answers moved
//     owners with wrong-shard redirects from then on — the mutations it
//     held included, which their callers' directory handles then land on
//     the new home — and drops the moved state locally.
//
// A shard's map is each member's own state, so every install reaches
// every member of the shard, Addr and Members alike.
//
// The guarantee: a resolve for a moved owner succeeds at every moment —
// before the rebalance and during the copy the old shard serves it, after
// the fence the new shard does and stragglers are redirected. A mutation
// is never lost or overwritten: it lands on the source before the handoff
// (and is copied), or waits out the copy, bounded by its budget, and lands
// on the new home after it.
func Rebalance(ctx context.Context, old, next wire.ShardMap, opts RebalanceOptions) error {
	oldRing, err := ring.Build(old)
	if err != nil {
		return fmt.Errorf("shard: rebalance: bad old map: %w", err)
	}
	nextRing, err := ring.Build(next)
	if err != nil {
		return fmt.Errorf("shard: rebalance: bad new map: %w", err)
	}
	if ring.Compare(next, old) <= 0 {
		return fmt.Errorf("shard: rebalance: new map v%d@e%d must supersede v%d@e%d", next.Version, next.Epoch, old.Version, old.Epoch)
	}
	var conns wire.Pool
	defer conns.Close()
	install := func(s wire.ShardInfo, mode string) error {
		req := &wire.ShardInstallRequest{Map: next, Mode: mode}
		for _, addr := range members(s) {
			var resp wire.ShardInstallResponse
			if err := conns.Call(ctx, addr, wire.TypeShardInstall, req, &resp); err != nil {
				return fmt.Errorf("member %s: %w", addr, err)
			}
		}
		return nil
	}
	// The replays ride a directory handle on next: it routes each owner to
	// its new home and follows a not-leader redirect to that shard's leader.
	dir := dirclient.New()
	defer dir.Close()
	_ = dir.Adopt(next) // built into a ring above; cannot fail

	oldIDs := make(map[string]wire.ShardInfo, len(old.Shards))
	for _, s := range old.Shards {
		oldIDs[s.ID] = s
	}

	// Phase 1: joining shards adopt the map first, so the copy and every
	// redirect a source answers find a destination that routes correctly.
	for _, s := range next.Shards {
		if _, existed := oldIDs[s.ID]; existed {
			continue
		}
		if _, dead := opts.DeadShards[s.ID]; dead {
			continue // defensive: a dead shard cannot join
		}
		if err := install(s, ""); err != nil {
			return fmt.Errorf("shard: rebalance: install on joining shard %s: %w", s.ID, err)
		}
		slog.Info("rebalance shard joined", "shard", s.ID, "version", next.Version, "epoch", next.Epoch)
	}

	// Phase 2: sources enter the handoff window, then the moved owners'
	// state is replayed to its new homes. Dead sources get no install and
	// no live dump — the coordinator's cached snapshot stands in for the
	// corpse's slice.
	for _, s := range old.Shards {
		if _, dead := opts.DeadShards[s.ID]; dead {
			continue
		}
		if err := install(s, "handoff"); err != nil {
			return fmt.Errorf("shard: rebalance: handoff install on shard %s: %w", s.ID, err)
		}
	}
	moved := 0
	for _, src := range old.Shards {
		dump, dead := opts.DeadShards[src.ID]
		if !dead {
			var err error
			if dump, err = leaderDump(ctx, &conns, src); err != nil {
				return fmt.Errorf("shard: rebalance: coverage dump from %s: %w", src.ID, err)
			}
		}
		for _, reg := range dump.Coverage {
			owner, ok := coverage.UserOfPath(reg.Path)
			if !ok || oldRing.Owner(owner).ID != src.ID {
				continue // not this source's to move (or ownerless)
			}
			dest := nextRing.Owner(owner)
			if dest.ID == src.ID {
				continue // stays put
			}
			if err := dir.Call(ctx, owner, wire.TypeRegister, &reg, nil); err != nil {
				return fmt.Errorf("shard: rebalance: replay registration %s→%s (%s): %w", src.ID, dest.ID, reg.Path, err)
			}
			moved++
		}
		for _, pr := range dump.Shields {
			if oldRing.Owner(pr.Owner).ID != src.ID {
				continue
			}
			dest := nextRing.Owner(pr.Owner)
			if dest.ID == src.ID {
				continue
			}
			if err := dir.Call(ctx, pr.Owner, wire.TypePutRule, &pr, nil); err != nil {
				return fmt.Errorf("shard: rebalance: replay shield rule %s→%s (owner %s): %w", src.ID, dest.ID, pr.Owner, err)
			}
			moved++
		}
	}
	slog.Info("rebalance replayed", "version", next.Version, "epoch", next.Epoch, "moved", moved)

	// Phase 3: sources fence — redirect the moved owners, their held
	// mutations included, and drop the moved slice.
	for _, s := range old.Shards {
		if _, dead := opts.DeadShards[s.ID]; dead {
			continue
		}
		if err := install(s, "fence"); err != nil {
			return fmt.Errorf("shard: rebalance: fence install on shard %s: %w", s.ID, err)
		}
	}
	slog.Info("rebalance complete", "version", next.Version, "epoch", next.Epoch)
	return nil
}

// members lists every member of shard s: its Members when it is a quorum
// constellation (they include Addr), else Addr alone.
func members(s wire.ShardInfo) []string {
	if len(s.Members) > 0 {
		return s.Members
	}
	return []string{s.Addr}
}

// leaderDump reads shard s's coverage dump, asking its members in turn: a
// replicated shard's followers refuse the dump, so the one that answers is
// the leader.
func leaderDump(ctx context.Context, conns *wire.Pool, s wire.ShardInfo) (dump wire.ShardCoverageResponse, err error) {
	for _, addr := range members(s) {
		if err = conns.Call(ctx, addr, wire.TypeShardCoverage, wire.Empty{}, &dump); err == nil {
			return dump, nil
		}
	}
	return dump, err
}
