// Package ring is the pure routing function of a sharded directory.
// Owners map to shards through a deterministic consistent-hash ring built
// from a versioned shard map (wire.ShardMap): any two holders of the same
// map route every owner identically, so "which shard owns alice" needs no
// coordination on the request path. The directory client (package
// dirclient) and the shard servers (package shard) both route with it.
package ring

import (
	"fmt"
	"hash/fnv"
	"sort"

	"gupster/internal/wire"
)

// vpoints is the number of virtual points each shard contributes to the
// ring. 64 keeps the expected imbalance between shards under a few
// percent at the shard counts the directory targets (2–64) while the ring
// stays small enough to rebuild on every map install.
const vpoints = 64

type point struct {
	hash  uint64
	shard int // index into Ring.shards
}

// Ring is an immutable consistent-hash routing table built from one shard
// map version. Build once per install; lookups are lock-free.
type Ring struct {
	version uint64
	epoch   uint64
	shards  []wire.ShardInfo
	points  []point // sorted by hash
}

// Compare orders two shard maps by (Epoch, Version), lexicographically:
// negative when a is older than b, zero when the coordinates are equal,
// positive when a is newer. Repair bumps the epoch, operator rebalances
// bump the version within an epoch, so the pair totally orders every
// legitimate map lineage; equal coordinates with different content mean a
// split-brain and are the installer's job to reject.
func Compare(a, b wire.ShardMap) int {
	switch {
	case a.Epoch < b.Epoch:
		return -1
	case a.Epoch > b.Epoch:
		return 1
	case a.Version < b.Version:
		return -1
	case a.Version > b.Version:
		return 1
	}
	return 0
}

// Build validates a shard map and builds its ring. A valid map has a
// non-zero version and at least one shard, every shard a non-empty unique
// ID and a non-empty address.
func Build(m wire.ShardMap) (*Ring, error) {
	if m.Version == 0 {
		return nil, fmt.Errorf("shard: map version 0 (unversioned)")
	}
	if len(m.Shards) == 0 {
		return nil, fmt.Errorf("shard: map v%d names no shards", m.Version)
	}
	seen := make(map[string]bool, len(m.Shards))
	r := &Ring{
		version: m.Version,
		epoch:   m.Epoch,
		shards:  append([]wire.ShardInfo(nil), m.Shards...),
		points:  make([]point, 0, vpoints*len(m.Shards)),
	}
	for i, s := range r.shards {
		if s.ID == "" {
			return nil, fmt.Errorf("shard: map v%d has a shard with no ID", m.Version)
		}
		if s.Addr == "" {
			return nil, fmt.Errorf("shard: map v%d shard %q has no address", m.Version, s.ID)
		}
		if seen[s.ID] {
			return nil, fmt.Errorf("shard: map v%d names shard %q twice", m.Version, s.ID)
		}
		seen[s.ID] = true
		for v := 0; v < vpoints; v++ {
			r.points = append(r.points, point{hash: hash64(fmt.Sprintf("%s#%d", s.ID, v)), shard: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Ties (astronomically rare) break deterministically by shard ID so
		// every holder of the map still agrees.
		return r.shards[r.points[a].shard].ID < r.shards[r.points[b].shard].ID
	})
	return r, nil
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	// Raw FNV-1a clusters similar short keys ("user-1", "user-2", …) into
	// a narrow arc of the ring, which collapses the partition onto one
	// shard. A 64-bit avalanche finalizer spreads them uniformly while
	// staying a pure function of the input.
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Owner returns the shard owning an owner ID: the first ring point at or
// after the owner's hash, wrapping. Total by construction — every owner
// maps to exactly one shard for any valid map.
func (r *Ring) Owner(owner string) wire.ShardInfo {
	h := hash64(owner)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.shards[r.points[i].shard]
}

// Version returns the map version the ring was built from.
func (r *Ring) Version() uint64 { return r.version }

// Epoch returns the repair epoch the ring was built from.
func (r *Ring) Epoch() uint64 { return r.epoch }

// Map re-exports the ring's shard map in wire form.
func (r *Ring) Map() wire.ShardMap {
	return wire.ShardMap{
		Version: r.version,
		Epoch:   r.epoch,
		Shards:  append([]wire.ShardInfo(nil), r.shards...),
	}
}

// Shards lists the ring's members.
func (r *Ring) Shards() []wire.ShardInfo {
	return append([]wire.ShardInfo(nil), r.shards...)
}
