// Package shard partitions the directory's owner keyspace across a
// constellation of MDM shards, routed by the consistent-hash ring of
// package ring. It supplies the server side: the Node (a shard-aware
// wrapper around an MDM's wire dispatch that serves its own slice,
// redirects the rest, and holds a moved owner's writes through a
// rebalance's handoff window), the Router (a data-less front-end that lets
// clients address "the directory" as one endpoint) and Rebalance (the live
// map change: handoff, copy, fence). Clients reach a sharded directory
// through package dirclient like any other.
package shard

import (
	"context"
	"fmt"
	"log/slog"
	"slices"
	"sync"

	"gupster/internal/core"
	"gupster/internal/coverage"
	"gupster/internal/dirclient/ring"
	"gupster/internal/wire"
)

// NodeConfig parameterizes a shard node.
type NodeConfig struct {
	// ShardID is this node's identity in the shard map. A node serves an
	// owner exactly when the installed map's ring assigns the owner to
	// this ID.
	ShardID string
	// MDM is the local directory slice, used only by a fence to drop the
	// owners the new map places elsewhere; the serving path, coverage dumps
	// included, goes through Inner.
	MDM *core.MDM
	// Inner is the unsharded dispatch the node wraps: a core.Server's Mux
	// for a plain shard, a replication.Node's Handle when the shard is
	// itself a quorum constellation.
	Inner wire.Handler
}

// handoffState is a live rebalance on the ceding side. Owners this node
// held under prev but the current ring places elsewhere are still served
// from the local replica, which stays complete while the coordinator
// copies it to the new homes; only their mutations wait, on closed, for the
// next install on the node, which ends the window.
type handoffState struct {
	prev   *ring.Ring
	closed chan struct{}
	// serving counts the frames routed to Inner inside the window, so a
	// fence drops the moved owners only after the reads it raced are
	// answered.
	serving sync.WaitGroup
}

// Node wraps an MDM's wire dispatch with shard routing. Requests for
// owners this shard holds fall through to Inner untouched; requests for
// owners held elsewhere are redirected (TypeWrongShard, carrying the full
// map), or — inside a rebalance's handoff window — served or held here.
type Node struct {
	cfg NodeConfig

	// mux answers shard administration; its fallback is route.
	mux *wire.Mux

	mu      sync.Mutex
	ring    *ring.Ring
	handoff *handoffState
}

// NewNode wraps inner with shard routing. With no map installed the node
// serves everything locally — a one-shard directory needs no map.
func NewNode(cfg NodeConfig) *Node {
	n := &Node{cfg: cfg}
	n.mux = adminMux(n.Map, n.Install, wire.HandlerFunc(n.route))
	return n
}

// adminMux is the dispatch a Node and a Router share: the map and install
// frames are answered from the holder's own state, every other frame is
// rest's.
func adminMux(current func() wire.ShardMap, install func(*wire.ShardInstallRequest) (*wire.ShardInstallResponse, error), rest wire.Handler) *wire.Mux {
	x := &wire.Mux{Fallback: rest}
	wire.Route(x, wire.TypeShardMap, func(context.Context, *wire.Empty) (wire.ShardMap, error) {
		return current(), nil
	})
	wire.Route(x, wire.TypeShardInstall, func(_ context.Context, req *wire.ShardInstallRequest) (*wire.ShardInstallResponse, error) {
		return install(req)
	})
	return x
}

// Install adopts a shard map in-process (the wire path arrives via
// TypeShardInstall). See ShardInstallRequest for the mode semantics.
func (n *Node) Install(req *wire.ShardInstallRequest) (*wire.ShardInstallResponse, error) {
	rg, err := ring.Build(req.Map)
	if err != nil {
		return nil, err
	}
	resp, ended, err := n.install(rg, req)
	if err != nil {
		return nil, err
	}
	if req.Mode == "fence" && n.cfg.MDM != nil {
		if ended != nil {
			ended.serving.Wait()
		}
		// The fencing drop runs outside n.mu: RetainOwners walks the whole
		// directory and must not stall dispatch. The ring captured above is
		// the one just installed, so a racing newer install only makes the
		// retain predicate stricter, never wrong.
		dropped := n.cfg.MDM.RetainOwners(func(owner string) bool {
			return rg.Owner(owner).ID == n.cfg.ShardID
		})
		slog.Info("map fenced", "shard", n.cfg.ShardID, "version", rg.Version(), "epoch", rg.Epoch(), "dropped", dropped)
	}
	return resp, nil
}

// install is Install's locked core: fencing checks, the ring swap, and
// the handoff window — it ends any open one, returning it, and opens a new
// one on a "handoff" install.
func (n *Node) install(rg *ring.Ring, req *wire.ShardInstallRequest) (*wire.ShardInstallResponse, *handoffState, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ring != nil {
		switch ring.Compare(rg.Map(), n.ring.Map()) {
		case -1:
			return nil, nil, errStaleMap(req.Map, n.ring.Map())
		case 0:
			// Same coordinates re-arrive legitimately (a rebalance installs
			// next in handoff, then fences with it), but only with identical
			// content: two different maps at one (epoch, version) mean a
			// split-brain repair and neither side may silently win.
			if !sameMapContent(rg.Map(), n.ring.Map()) {
				return nil, nil, errDivergentMap(req.Map)
			}
		}
	}
	switch req.Mode {
	case "", "fence", "handoff":
	default:
		return nil, nil, errUnknownMode(req.Mode)
	}
	// The previous ring, against which this node may still hold moved
	// owners, survives a handoff reinstalled on top of a handoff.
	prev, ended := n.ring, n.handoff
	if ended != nil {
		prev = ended.prev
		close(ended.closed) // held mutations route again, on rg
		n.handoff = nil
	}
	n.ring = rg
	if req.Mode == "handoff" && prev != nil {
		n.handoff = &handoffState{prev: prev, closed: make(chan struct{})}
	}
	slog.Info("map installed", "shard", n.cfg.ShardID, "version", rg.Version(), "epoch", rg.Epoch(), "mode", req.Mode, "shards", len(rg.Shards()))
	return &wire.ShardInstallResponse{Version: rg.Version()}, ended, nil
}

func errStaleMap(got, have wire.ShardMap) error {
	return fmt.Errorf("shard: refusing stale map v%d@e%d (holding v%d@e%d)", got.Version, got.Epoch, have.Version, have.Epoch)
}

func errDivergentMap(got wire.ShardMap) error {
	return fmt.Errorf("shard: refusing divergent map v%d@e%d (same coordinates, different shards)", got.Version, got.Epoch)
}

// sameMapContent reports whether two maps name the same shards in the same
// order, each with the same address and member list. A nil and an empty
// member list are the same list, as they are on the wire.
func sameMapContent(a, b wire.ShardMap) bool {
	return a.Version == b.Version && a.Epoch == b.Epoch &&
		slices.EqualFunc(a.Shards, b.Shards, func(x, y wire.ShardInfo) bool {
			return x.ID == y.ID && x.Addr == y.Addr && slices.Equal(x.Members, y.Members)
		})
}

func errUnknownMode(mode string) error {
	return fmt.Errorf("shard: unknown install mode %q", mode)
}

// Ring returns the node's current routing table (nil before any install).
func (n *Node) Ring() *ring.Ring {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ring
}

// Map returns the shard map the node currently serves (the zero map
// before any install) — the accessor the gossip layer reads.
func (n *Node) Map() wire.ShardMap {
	if r := n.Ring(); r != nil {
		return r.Map()
	}
	return wire.ShardMap{}
}

// ServeWire implements wire.Handler: shard administration is answered by
// the node's Mux, everything else is routed.
func (n *Node) ServeWire(c *wire.ServerConn, m *wire.Message) { n.mux.ServeWire(c, m) }

// route is a raw handler because it never decodes what it passes on: it
// peeks at the frame's owner, and the frame then falls through to Inner
// untouched, is redirected, or — a moved owner's mutation inside a
// handoff window — is held until the window ends.
func (n *Node) route(c *wire.ServerConn, m *wire.Message) {
	owners, scoped := ownersOfMessage(m.Type, m.Payload)
	if !scoped || len(owners) == 0 {
		n.cfg.Inner.ServeWire(c, m)
		return
	}

	n.mu.Lock()
	rg, h := n.ring, n.handoff
	if h != nil {
		h.serving.Add(1)
		defer h.serving.Done()
	}
	n.mu.Unlock()
	if rg == nil {
		n.cfg.Inner.ServeWire(c, m)
		return
	}

	// A multi-owner frame (batch resolve) is served locally only when
	// every owner routes here; a mixed batch is redirected on the first
	// foreign owner. core.Client.BatchResolve sends one frame per home
	// shard, so a mixed one arrives only from a client whose map is behind
	// — and the redirect carries the map that lets it regroup.
	for _, owner := range owners {
		target := rg.Owner(owner)
		if target.ID == n.cfg.ShardID {
			continue
		}
		if h == nil || h.prev.Owner(owner).ID != n.cfg.ShardID {
			n.redirect(c, m, owner, target, rg)
			return
		}
		// The owner is moving away and its copy is in flight. Reads,
		// subscribes and change notices are served from this replica,
		// which is complete until the fence; a mutation waits for the
		// window to end and is then redirected, so it lands on the new
		// home after the copy and nothing the copy writes overwrites it.
		if isMutation(m.Type) {
			go n.hold(c, m, h.closed)
			return
		}
	}
	n.cfg.Inner.ServeWire(c, m)
}

// hold parks a moved owner's mutation off the connection's serving
// goroutine until the install that ends the handoff window, then routes it
// again on the new ring. The frame's budget bounds the wait.
func (n *Node) hold(c *wire.ServerConn, m *wire.Message, closed <-chan struct{}) {
	ctx, cancel := wire.ForwardContext(context.Background(), m)
	defer cancel()
	select {
	case <-closed:
		n.route(c, m)
	case <-ctx.Done():
		_ = c.ReplyError(m, fmt.Errorf("shard: %s held for a rebalance handoff: %w", m.Type, ctx.Err()))
	}
}

func (n *Node) redirect(c *wire.ServerConn, m *wire.Message, owner string, target wire.ShardInfo, rg *ring.Ring) {
	mp := rg.Map()
	_ = c.ReplyError(m, &wire.WrongShardError{
		Owner: owner, ShardID: target.ID, Addr: target.Addr,
		Members: target.Members, Map: &mp,
	})
}

// Close ends any handoff window: a held mutation is redirected at once.
func (n *Node) Close() {
	n.mu.Lock()
	if n.handoff != nil {
		close(n.handoff.closed)
		n.handoff = nil
	}
	n.mu.Unlock()
}

// isMutation reports whether a message type mutates the directory.
func isMutation(typ string) bool {
	switch typ {
	case wire.TypeRegister, wire.TypeUnregister, wire.TypePutRule, wire.TypeDeleteRule:
		return true
	}
	return false
}

// ownersOfMessage extracts the profile owner(s) a frame is scoped to.
// Types with no owner scope (stats, traces, heartbeats, replication
// traffic) report scoped=false and are always served locally.
func ownersOfMessage(typ string, payload wire.Payload) (owners []string, scoped bool) {
	switch typ {
	case wire.TypeResolve:
		var req wire.ResolveRequest
		if err := wire.Unmarshal(payload, &req); err != nil {
			return nil, false
		}
		if o, ok := resolveOwner(req.Owner, req.Path); ok {
			return []string{o}, true
		}
		return nil, true
	case wire.TypeBatchResolve:
		var req wire.BatchResolveRequest
		if err := wire.Unmarshal(payload, &req); err != nil {
			return nil, false
		}
		for _, r := range req.Requests {
			if o, ok := resolveOwner(r.Owner, r.Path); ok {
				owners = append(owners, o)
			}
		}
		return owners, true
	case wire.TypeRegister:
		var req wire.RegisterRequest
		if err := wire.Unmarshal(payload, &req); err != nil {
			return nil, false
		}
		if o, ok := coverage.UserOfPath(req.Path); ok {
			return []string{o}, true
		}
		return nil, true
	case wire.TypeUnregister:
		var req wire.UnregisterRequest
		if err := wire.Unmarshal(payload, &req); err != nil {
			return nil, false
		}
		if o, ok := coverage.UserOfPath(req.Path); ok {
			return []string{o}, true
		}
		return nil, true
	case wire.TypeSubscribe:
		var req wire.SubscribeRequest
		if err := wire.Unmarshal(payload, &req); err != nil {
			return nil, false
		}
		if o, ok := resolveOwner(req.Owner, req.Path); ok {
			return []string{o}, true
		}
		return nil, true
	case wire.TypePutRule:
		var req wire.PutRuleRequest
		if err := wire.Unmarshal(payload, &req); err != nil {
			return nil, false
		}
		if req.Owner != "" {
			return []string{req.Owner}, true
		}
		return nil, true
	case wire.TypeDeleteRule:
		var req wire.DeleteRuleRequest
		if err := wire.Unmarshal(payload, &req); err != nil {
			return nil, false
		}
		if req.Owner != "" {
			return []string{req.Owner}, true
		}
		return nil, true
	case wire.TypeChanged:
		var cn wire.ChangedNotice
		if err := wire.Unmarshal(payload, &cn); err != nil {
			return nil, false
		}
		if cn.User != "" {
			return []string{cn.User}, true
		}
		return nil, true
	}
	return nil, false
}

func resolveOwner(owner, path string) (string, bool) {
	if owner != "" {
		return owner, true
	}
	return coverage.UserOfPath(path)
}
