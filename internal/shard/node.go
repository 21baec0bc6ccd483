// Package shard partitions the directory's owner keyspace across a
// constellation of MDM shards, routed by the consistent-hash ring of
// package ring. It supplies the server side: the Node (a shard-aware
// wrapper around an MDM's wire dispatch that serves its own slice,
// forwards or redirects the rest, and runs the live-rebalance handoff
// state machine), the Router (a data-less front-end that lets clients
// address "the directory" as one endpoint) and Rebalance (the three-phase
// live map change). Clients reach a sharded directory through package
// dirclient like any other.
package shard

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"

	"gupster/internal/core"
	"gupster/internal/coverage"
	"gupster/internal/dirclient"
	"gupster/internal/dirclient/ring"
	"gupster/internal/wire"
)

// NodeConfig parameterizes a shard node.
type NodeConfig struct {
	// ShardID is this node's identity in the shard map. A node serves an
	// owner exactly when the installed map's ring assigns the owner to
	// this ID.
	ShardID string
	// MDM is the local directory slice (used for the post-drain cleanup and
	// fencing; the serving path, coverage dumps included, goes through
	// Inner).
	MDM *core.MDM
	// Inner is the unsharded dispatch the node wraps: a core.Server's Mux
	// for a plain shard, a replication.Node's Handle when the shard is
	// itself a quorum constellation.
	Inner wire.Handler
}

// handoffState tracks a live rebalance on the losing side. While present,
// owners this node held under prev but lost under the current ring are
// not redirected outright: in "handoff" mode their reads are still served
// locally (the replay to the new shard is in flight) while their
// mutations forward to the new owner so nothing lands in a directory
// slice about to be dropped; in "drain" mode everything forwards until
// the window closes, after which the node flips to wrong-shard redirects
// and drops the moved owners' local state.
type handoffState struct {
	mode  string // "handoff" | "drain"
	until time.Time
	prev  *ring.Ring
	timer *time.Timer
}

// Node wraps an MDM's wire dispatch with shard routing. Requests for
// owners this shard holds fall through to Inner untouched; requests for
// owners held elsewhere are redirected (TypeWrongShard, carrying the full
// map) or — during a rebalance window — transparently forwarded.
type Node struct {
	cfg NodeConfig

	// mux answers shard administration; its fallback is route.
	mux *wire.Mux

	mu      sync.Mutex
	ring    *ring.Ring
	handoff *handoffState

	// peers forwards to the other shards. It holds every map this node
	// installs (and any newer one a peer's redirect carries), so a forward
	// routes by owner exactly as this node's own ring would.
	peers *dirclient.Directory
}

// NewNode wraps inner with shard routing. With no map installed the node
// serves everything locally — a one-shard directory needs no map.
func NewNode(cfg NodeConfig) *Node {
	n := &Node{cfg: cfg, peers: dirclient.New()}
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
	resp, err := n.install(rg, req)
	if err != nil {
		return nil, err
	}
	_ = n.peers.Adopt(req.Map) // built into a ring above; cannot fail
	if req.Mode == "fence" && n.cfg.MDM != nil {
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

// install is Install's locked core: fencing checks, handoff-state
// bookkeeping, and the ring swap.
func (n *Node) install(rg *ring.Ring, req *wire.ShardInstallRequest) (*wire.ShardInstallResponse, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ring != nil {
		switch ring.Compare(rg.Map(), n.ring.Map()) {
		case -1:
			return nil, errStaleMap(req.Map, n.ring.Map())
		case 0:
			// Same coordinates re-arrive legitimately (handoff→drain chains
			// reinstall the same map), but only with identical content: two
			// different maps at one (epoch, version) mean a split-brain
			// repair and neither side may silently win.
			if !sameMapContent(rg.Map(), n.ring.Map()) {
				return nil, errDivergentMap(req.Map)
			}
		}
	}
	// The outgoing state machine: the previous ring (against which this
	// node may still hold moved owners) survives a handoff→drain install
	// chain; a plain install ends any window.
	prev := n.ring
	if n.handoff != nil {
		prev = n.handoff.prev
		if n.handoff.timer != nil {
			n.handoff.timer.Stop()
		}
		n.handoff = nil
	}
	n.ring = rg
	switch req.Mode {
	case "":
		// Adopted outright.
	case "fence":
		// Adopted outright; the caller drops stale slices after unlock.
	case "handoff":
		if prev != nil {
			n.handoff = &handoffState{mode: "handoff", prev: prev}
		}
	case "drain":
		if prev != nil {
			window := time.Duration(req.ForwardMillis) * time.Millisecond
			if window <= 0 {
				window = 500 * time.Millisecond
			}
			h := &handoffState{mode: "drain", prev: prev, until: time.Now().Add(window)}
			h.timer = time.AfterFunc(window, n.finishDrain)
			n.handoff = h
		}
	default:
		return nil, errUnknownMode(req.Mode)
	}
	slog.Info("map installed", "shard", n.cfg.ShardID, "version", rg.Version(), "epoch", rg.Epoch(), "mode", req.Mode, "shards", len(rg.Shards()))
	return &wire.ShardInstallResponse{Version: rg.Version()}, nil
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

// finishDrain ends the drain window: the node stops forwarding, answers
// moved owners with wrong-shard redirects, and drops their registrations,
// shield rules, cached components and subscriptions locally (tombstoned
// subscribers re-home to the owning shard).
func (n *Node) finishDrain() {
	n.mu.Lock()
	h := n.handoff
	rg := n.ring
	if h == nil || h.mode != "drain" {
		n.mu.Unlock()
		return
	}
	n.handoff = nil
	n.mu.Unlock()
	if n.cfg.MDM != nil {
		dropped := n.cfg.MDM.RetainOwners(func(owner string) bool {
			return rg.Owner(owner).ID == n.cfg.ShardID
		})
		slog.Info("drain complete", "shard", n.cfg.ShardID, "version", rg.Version(), "epoch", rg.Epoch(), "dropped", dropped)
	}
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
// untouched, is redirected, or — inside a rebalance window — is relayed.
func (n *Node) route(c *wire.ServerConn, m *wire.Message) {
	owners, scoped := ownersOfMessage(m.Type, m.Payload)
	if !scoped || len(owners) == 0 {
		n.cfg.Inner.ServeWire(c, m)
		return
	}

	n.mu.Lock()
	rg := n.ring
	h := n.handoff
	if h != nil && h.mode == "drain" && time.Now().After(h.until) {
		// The timer callback flips the state; don't serve a stale window
		// if dispatch races it.
		h = nil
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
		movedAway := h != nil && h.prev.Owner(owner).ID == n.cfg.ShardID
		switch {
		case movedAway && h.mode == "drain":
			relay(n.peers, c, m, owner)
			return
		case movedAway && h.mode == "handoff":
			if m.Type == wire.TypeSubscribe {
				// Subscriptions are never forwarded (the notification
				// stream would need relaying); the new shard already has
				// the map and serves them directly.
				n.redirect(c, m, owner, target, rg)
				return
			}
			if isMutation(m.Type) {
				relay(n.peers, c, m, owner)
				return
			}
			if m.Type == wire.TypeChanged {
				// The new shard notifies its subscribers; this node still
				// serves reads for the owner, so its cache must hear the
				// change too.
				n.applyChangedLocally(m)
				relay(n.peers, c, m, owner)
				return
			}
			// Reads stay local until the drain: the replay to the new
			// shard is still in flight and this replica is complete.
			continue
		default:
			n.redirect(c, m, owner, target, rg)
			return
		}
	}
	n.cfg.Inner.ServeWire(c, m)
}

func (n *Node) redirect(c *wire.ServerConn, m *wire.Message, owner string, target wire.ShardInfo, rg *ring.Ring) {
	mp := rg.Map()
	_ = c.ReplyError(m, &wire.WrongShardError{
		Owner: owner, ShardID: target.ID, Addr: target.Addr,
		Members: target.Members, Map: &mp,
	})
}

// applyChangedLocally feeds a change notice into the local MDM (cache
// invalidation and local subscribers) without replying.
func (n *Node) applyChangedLocally(m *wire.Message) {
	if n.cfg.MDM == nil {
		return
	}
	var cn wire.ChangedNotice
	if err := wire.Unmarshal(m.Payload, &cn); err != nil {
		return
	}
	n.cfg.MDM.HandleChanged(&cn)
}

// relay passes a frame through undecoded to the shard dir routes owner to
// and passes the raw reply back, under the frame's budget or, without one,
// wire.ForwardTimeout. dir rides out an install sweep (a destination that
// does not hold the new map yet bounces the frame with an older map) and
// chases a not-leader hop inside the target constellation; a typed verdict
// that outlasts its chase — the target knows better (a newer map, a leader,
// its own load) — reaches the caller typed, and a dead constellation is
// named as one. A Node relays only inside rebalance windows: steady-state
// cross-shard traffic is redirected so clients learn the map instead of
// taxing two shards per call.
func relay(dir *dirclient.Directory, c *wire.ServerConn, m *wire.Message, owner string) {
	ctx, cancel := wire.ForwardContext(context.Background(), m)
	defer cancel()
	if m.ID == 0 {
		_ = dir.Send(ctx, owner, m.Type, m.Payload)
		return
	}
	var reply wire.Payload
	err := dir.Call(ctx, owner, m.Type, m.Payload, &reply)
	if errors.Is(err, dirclient.ErrUnreachable) {
		// Every member is down: answer with the typed verdict instead of
		// letting the caller burn its deadline on a dead constellation.
		mp := dir.Map()
		err = &NoShardAvailableError{MapVersion: mp.Version, MapEpoch: mp.Epoch, LastErr: err}
	}
	if err != nil {
		_ = c.ReplyError(m, err)
		return
	}
	_ = c.Reply(m, reply)
}

// Close releases forwarding connections and stops any drain timer.
func (n *Node) Close() {
	n.mu.Lock()
	if n.handoff != nil && n.handoff.timer != nil {
		n.handoff.timer.Stop()
	}
	n.handoff = nil
	n.mu.Unlock()
	n.peers.Close()
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
