package shard

import (
	"context"
	"fmt"

	"gupster/internal/coverage"
	"gupster/internal/dirclient/ring"
	"gupster/internal/wire"
)

// RebalanceOptions parameterizes a live rebalance.
type RebalanceOptions struct {
	// ForwardMillis is the drain window length installed on losing shards;
	// 0 means the node-side default (500ms).
	ForwardMillis int64
	// DeadShards names source shards that are confirmed dead, keyed by
	// shard ID, each with the coordinator's last cached coverage snapshot.
	// A dead source is never dialed: its installs are skipped and its
	// moved owners are replayed from the snapshot instead of a live dump.
	// This is the auto-repair entry point — the rebalance machinery is
	// identical, only the source of truth for the dead slice changes.
	DeadShards map[string]wire.ShardCoverageResponse
	// Logf, when set, receives progress events.
	Logf func(format string, args ...any)
}

// Rebalance moves the directory from shard map old to shard map next
// without dropping in-flight resolves, in three phases:
//
//  1. Every shard in next that is not in old adopts the map outright (it
//     holds no owners yet, so there is nothing to hand off).
//  2. Every shard in old installs next in "handoff" mode: it keeps
//     serving reads for owners it just lost (its replica is still the
//     complete one) while forwarding their mutations to the new owner so
//     nothing lands in a slice about to be dropped. The coordinator then
//     replays each moved owner's coverage registrations and shield rules
//     source-to-destination over the destinations' normal durable
//     mutation path.
//  3. Every shard in old installs next in "drain" mode: everything for
//     moved owners forwards for the window, after which the source flips
//     to wrong-shard redirects and drops the moved state locally.
//
// The guarantee: a resolve for a moved owner succeeds at every moment —
// before the rebalance (old shard serves), during replay (old shard still
// serves reads), during drain (old shard forwards), and after (new shard
// serves, stragglers are redirected). Mutations are never lost: they
// either land on the source before handoff (and are replayed) or are
// forwarded to the destination from the moment the handoff installs.
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
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	var conns wire.Pool
	defer conns.Close()
	install := func(addr, mode string) error {
		var resp wire.ShardInstallResponse
		return conns.Call(ctx, addr, wire.TypeShardInstall, &wire.ShardInstallRequest{
			Map: next, Mode: mode, ForwardMillis: opts.ForwardMillis,
		}, &resp)
	}

	oldIDs := make(map[string]wire.ShardInfo, len(old.Shards))
	for _, s := range old.Shards {
		oldIDs[s.ID] = s
	}

	// Phase 1: joining shards adopt the map first, so from the instant a
	// source starts forwarding there is a destination that routes
	// correctly.
	for _, s := range next.Shards {
		if _, existed := oldIDs[s.ID]; existed {
			continue
		}
		if _, dead := opts.DeadShards[s.ID]; dead {
			continue // defensive: a dead shard cannot join
		}
		if err := install(s.Addr, ""); err != nil {
			return fmt.Errorf("shard: rebalance: install on joining shard %s: %w", s.ID, err)
		}
		logf("rebalance: shard %s adopted map v%d", s.ID, next.Version)
	}

	// Phase 2: sources enter the handoff window, then the moved owners'
	// state is replayed to its new homes. Dead sources get no install and
	// no live dump — the coordinator's cached snapshot stands in for the
	// corpse's slice.
	for _, s := range old.Shards {
		if _, dead := opts.DeadShards[s.ID]; dead {
			continue
		}
		if err := install(s.Addr, "handoff"); err != nil {
			return fmt.Errorf("shard: rebalance: handoff install on shard %s: %w", s.ID, err)
		}
	}
	moved := 0
	for _, src := range old.Shards {
		var dump wire.ShardCoverageResponse
		if snap, dead := opts.DeadShards[src.ID]; dead {
			dump = snap
		} else {
			if err := conns.Call(ctx, src.Addr, wire.TypeShardCoverage, wire.Empty{}, &dump); err != nil {
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
			if err := conns.Call(ctx, dest.Addr, wire.TypeRegister, &reg, nil); err != nil {
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
			if err := conns.Call(ctx, dest.Addr, wire.TypePutRule, &pr, nil); err != nil {
				return fmt.Errorf("shard: rebalance: replay shield rule %s→%s (owner %s): %w", src.ID, dest.ID, pr.Owner, err)
			}
			moved++
		}
	}
	logf("rebalance: replayed %d moved records to map v%d homes", moved, next.Version)

	// Phase 3: sources drain — forward for the window, then flip to
	// redirects and drop the moved slice.
	for _, s := range old.Shards {
		if _, dead := opts.DeadShards[s.ID]; dead {
			continue
		}
		if err := install(s.Addr, "drain"); err != nil {
			return fmt.Errorf("shard: rebalance: drain install on shard %s: %w", s.ID, err)
		}
	}
	logf("rebalance: map v%d@e%d live on all shards", next.Version, next.Epoch)
	return nil
}
