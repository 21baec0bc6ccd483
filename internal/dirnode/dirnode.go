// Package dirnode assembles one directory node. The paper's MDM is one
// logical directory; §4.2/§5.3 let it run as a constellation, and this
// repository grew the constellation as handler layers — journal, quorum
// replication, shard routing, gossip repair — that must be stacked on one
// listener in one order and torn down in the reverse order. Start is the
// only place that knows the stack, Node.Close the only place that knows
// the teardown; gupsterd and the scenario rig both reach a serving node
// through them, so a layering fix lands once and the composition the
// daemon offers is the composition the experiments run.
//
// The stack, innermost first:
//
//	core.MDM           the directory; journal recovered before anything serves
//	core.Server        plain dispatch, or
//	replication.Node   quorum member (leader-only writes, log shipping)
//	shard.Node         routes by owner; holds the map before the first frame
//	health.Wrap        gossip frames; the agent probes only after the install
//	wire.Server        the listener
//
// Every layer is a wire.Mux that routes its own frames and falls through to
// the layer inside it (DESIGN.md §18). A router replaces all of it with a
// data-less shard.Router.
package dirnode

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"

	"gupster/internal/core"
	"gupster/internal/debugsrv"
	"gupster/internal/dirclient/ring"
	"gupster/internal/health"
	"gupster/internal/journal"
	"gupster/internal/replication"
	"gupster/internal/shard"
	"gupster/internal/wire"
)

// Config says which layers a node runs. Every field passes through to the
// layer it names; none adds behaviour of its own.
type Config struct {
	// MDM configures the directory. A router holds none and ignores it.
	MDM core.Config
	// DataDir, when set, makes the directory durable: the journal there is
	// recovered into the MDM before the node serves, and every mutation is
	// appended to it. Journal tunes it.
	DataDir string
	Journal journal.Options
	// Replication, when set, makes the node a member of a quorum
	// constellation (needs DataDir: the journal is the replicated log). An
	// empty ID is filled with the advertised address.
	Replication *replication.Config
	// ShardID, when set, fronts the directory with shard routing under
	// ShardMap, installed before the first frame is served.
	ShardID  string
	ShardMap wire.ShardMap
	// Gossip, when set, runs the failure detector between shards (needs
	// ShardID). Members lists the rest of the constellation, spares
	// included; Start adds this node and fills Self, Map and SelfInstall.
	Gossip *health.Config
	// Router runs a data-less router over ShardMap instead of a directory.
	Router bool
	// Listener is a pre-bound listener the node takes ownership of — a
	// constellation whose members must know each other's addresses before
	// any of them starts binds them all first. Nil means listen on Listen.
	Listener net.Listener
	Listen   string
	// Advertise is the address peers and redirected clients dial: a proxy
	// or NAT address in front of the listener. Empty means the listener's.
	Advertise string
	// DebugAddr, when set, serves the debug endpoint there: pprof, with
	// mutex and block profiling on, and the directory's counters as text
	// (internal/debugsrv).
	DebugAddr string
}

// Validate refuses the layer combinations that cannot work, before
// anything is opened.
func (c *Config) Validate() error {
	mapped := c.Router || c.ShardID != ""
	switch {
	case mapped && len(c.ShardMap.Shards) == 0:
		return errors.New("a router (-router) or shard (-shard-of) requires a shard map (-shard-map)")
	case c.Router:
		// A router holds no directory state — it needs no key, journal or
		// replication, only the map.
	case c.MDM.Signer == nil:
		return errors.New("a referral-signing key is required (-key, shared with data stores)")
	case c.Replication != nil && c.DataDir == "":
		return errors.New("quorum replication (-peers) requires a data directory (-data-dir): the journal is the replicated log")
	case c.Gossip != nil && c.ShardID == "":
		return errors.New("gossip (-auto-repair/-gossip-interval/-suspect-timeout/-spare) requires a shard ID (-shard-of): it runs between directory shards")
	}
	if mapped {
		if _, err := ring.Build(c.ShardMap); err != nil {
			return fmt.Errorf("bad shard map: %w", err)
		}
	}
	return nil
}

// Role names the node's layer stack for a log line.
func (c *Config) Role() string {
	if c.Router {
		return "shard router"
	}
	role := "MDM"
	if c.Replication != nil {
		role = "replicated MDM"
	}
	if c.ShardID != "" {
		role += fmt.Sprintf(" shard %q", c.ShardID)
	}
	return role
}

// Node is a serving directory node. The exported layers are nil where the
// Config left them out; they are for reading state (replication status,
// installed ring, directory counters) — the node owns their lifecycles.
type Node struct {
	MDM   *core.MDM
	Repl  *replication.Node
	Shard *shard.Node
	// Recovered reports what the journal held at boot (nil without DataDir).
	Recovered *journal.Recovered

	addr   string
	agent  *health.Agent
	srv    *wire.Server
	router *shard.Router
	debug  *debugsrv.Server

	closeOnce sync.Once
}

// Start assembles and serves the node cfg describes. On error nothing is
// left running and cfg.Listener is closed.
func Start(cfg Config) (_ *Node, err error) {
	n := &Node{}
	ln := cfg.Listener
	defer func() {
		// Every failure below happens before the listener is served.
		if err != nil {
			if ln != nil {
				ln.Close()
			}
			n.Close()
		}
	}()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	advertise := cfg.Advertise
	if advertise == "" {
		advertise = cfg.Listen
		if ln != nil {
			advertise = ln.Addr().String()
		}
	}

	var h wire.Handler
	if cfg.Router {
		if n.router, err = shard.NewRouter(cfg.ShardMap); err != nil {
			return nil, err
		}
		h = n.router
	} else if h, err = n.assemble(&cfg, advertise); err != nil {
		return nil, err
	}

	// Only now open the door: the journal is recovered and the map
	// installed, so the first frame already sees the whole directory.
	if ln == nil {
		if ln, err = net.Listen("tcp", cfg.Listen); err != nil {
			return nil, err
		}
	}
	n.addr = ln.Addr().String()
	if n.Repl != nil {
		n.Repl.Start(ln, h)
	} else {
		n.srv = wire.ServeListener(ln, h)
	}
	if cfg.DebugAddr != "" {
		if n.debug, err = debugsrv.Start(cfg.DebugAddr, n.stats); err != nil {
			return nil, err
		}
	}
	// Probing starts last, so the first rounds gossip real coordinates.
	if n.agent != nil {
		n.agent.Start()
	}
	return n, nil
}

// stats is what the debug endpoint exposes: the directory's counters, none
// on a router.
func (n *Node) stats() wire.StatsResponse {
	if n.MDM == nil {
		return wire.StatsResponse{}
	}
	return n.MDM.Snapshot()
}

// assemble builds the directory and its handler stack, innermost first.
func (n *Node) assemble(cfg *Config, advertise string) (wire.Handler, error) {
	n.MDM = core.New(cfg.MDM)
	if cfg.DataDir != "" {
		open := core.OpenDurable
		if cfg.Replication != nil {
			open = core.OpenMember
		}
		rec, err := open(n.MDM, cfg.DataDir, cfg.Journal)
		if err != nil {
			return nil, fmt.Errorf("recover %s: %w", cfg.DataDir, err)
		}
		n.Recovered = rec
	}

	var h wire.Handler
	if cfg.Replication == nil {
		h = core.NewServer(n.MDM).Mux
	} else {
		rc := *cfg.Replication
		if rc.ID == "" {
			rc.ID = advertise
		}
		repl, err := replication.NewNode(n.MDM, rc)
		if err != nil {
			return nil, err
		}
		n.Repl = repl
		h = wire.HandlerFunc(repl.Handle)
	}
	if cfg.ShardID == "" {
		return h, nil
	}

	// Shard routing fronts whatever serves the slice: the shard node
	// answers map/install/coverage frames and routes owner-scoped traffic
	// before the inner layer sees it.
	n.Shard = shard.NewNode(shard.NodeConfig{ShardID: cfg.ShardID, MDM: n.MDM, Inner: h})
	if _, err := n.Shard.Install(&wire.ShardInstallRequest{Map: cfg.ShardMap}); err != nil {
		return nil, err
	}
	if cfg.Gossip == nil {
		return n.Shard, nil
	}

	// The constellation is cfg.Gossip.Members plus this node; a node its
	// own members list does not name (a spare learning the map by install)
	// gossips as itself on its advertised address.
	gc := *cfg.Gossip
	gc.Self = wire.ShardInfo{ID: cfg.ShardID, Addr: advertise}
	if i := slices.IndexFunc(gc.Members, func(m wire.ShardInfo) bool { return m.ID == cfg.ShardID }); i >= 0 {
		gc.Self = gc.Members[i]
	} else {
		gc.Members = append(slices.Clone(gc.Members), gc.Self)
	}
	gc.Map = n.Shard.Map
	gc.SelfInstall = n.Shard.Install
	n.agent = health.New(gc)
	return health.Wrap(n.agent, n.Shard), nil
}

// Addr is the address the node listens on (useful with ":0").
func (n *Node) Addr() string { return n.addr }

// DebugAddr is the debug endpoint's address; empty without one.
func (n *Node) DebugAddr() string {
	if n.debug == nil {
		return ""
	}
	return n.debug.Addr()
}

// Close stops the node, outermost layer first: the debug endpoint, the
// gossip agent (no repair mid-teardown), the listener and with it every
// in-flight request, the replication shippers and election loop, the
// shard node's held mutations, and only then the directory and
// its journal — so nothing is mid-append when the journal goes. Idempotent; the in-process analog
// of the process dying when called mid-run.
func (n *Node) Close() {
	n.closeOnce.Do(func() {
		if n.debug != nil {
			n.debug.Close()
		}
		if n.agent != nil {
			n.agent.Close()
		}
		if n.srv != nil {
			n.srv.Close()
		}
		if n.Repl != nil {
			n.Repl.Close() // its listener, then its loops
		}
		if n.Shard != nil {
			n.Shard.Close()
		}
		if n.router != nil {
			n.router.Close()
		}
		if n.MDM != nil {
			n.MDM.Close()
		}
	})
}
