package shard

import (
	"fmt"

	"gupster/internal/dirclient"
	"gupster/internal/dirclient/ring"
	"gupster/internal/wire"
)

// Router is a data-less shard front-end: it holds no directory state,
// only a handle on the sharded directory, and forwards every frame to the
// owning shard. It gives callers that cannot reach the shards themselves a
// single endpoint, at the cost of one extra network hop per call.
type Router struct {
	cfg RouterConfig
	// dir is the router's whole state: its shard map is the one the router
	// serves and installs into, its pool the forwarding connections.
	dir *dirclient.Directory
	mux *wire.Mux
}

// RouterConfig parameterizes a Router.
type RouterConfig struct {
	// Logf, when set, receives routing events.
	Logf func(format string, args ...any)
}

// NewRouter builds a router over an initial shard map.
func NewRouter(m wire.ShardMap, cfg RouterConfig) (*Router, error) {
	dir := dirclient.New()
	if err := dir.Adopt(m); err != nil {
		return nil, err
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	r := &Router{cfg: cfg, dir: dir}
	r.mux = adminMux(dir.Map, r.Install, wire.HandlerFunc(r.forward))
	return r, nil
}

// Install adopts a new shard map. The router holds no owners, so installs
// are plain: any mode is accepted and only the map matters.
func (r *Router) Install(req *wire.ShardInstallRequest) (*wire.ShardInstallResponse, error) {
	cur := r.dir.Map()
	if err := r.dir.Adopt(req.Map); err != nil { // installs only a newer map
		return nil, err
	}
	switch ring.Compare(req.Map, cur) {
	case -1:
		return nil, errStaleMap(req.Map, cur)
	case 0:
		if !sameMapContent(req.Map, cur) {
			return nil, errDivergentMap(req.Map)
		}
	}
	r.cfg.Logf("router: shard map v%d@e%d installed (%d shards)", req.Map.Version, req.Map.Epoch, len(req.Map.Shards))
	return &wire.ShardInstallResponse{Version: req.Map.Version}, nil
}

// NoShardAvailableError reports that every shard named by the router's
// current map refused a connection. It carries the map coordinates so the
// caller can tell a dead constellation from a stale map, and wraps the
// last dial error for diagnostics.
type NoShardAvailableError struct {
	MapVersion uint64
	MapEpoch   uint64
	LastErr    error
}

func (e *NoShardAvailableError) Error() string {
	return fmt.Sprintf("shard: no shard available (map v%d@e%d): %v", e.MapVersion, e.MapEpoch, e.LastErr)
}

func (e *NoShardAvailableError) Unwrap() error { return e.LastErr }

// ServeWire implements wire.Handler.
func (r *Router) ServeWire(c *wire.ServerConn, m *wire.Message) { r.mux.ServeWire(c, m) }

// forward is a raw handler: the router relays every frame it does not
// answer itself, undecoded. A batch goes to its first owner's shard:
// core.Client.BatchResolve groups a batch by home shard before sending, and
// a mixed one (a client that has not learned the map) comes back as that
// shard's wrong-shard redirect. Ownerless traffic (stats, trace reports)
// goes wherever the directory last answered such a frame — the map's first
// shard until it dies.
func (r *Router) forward(c *wire.ServerConn, m *wire.Message) {
	owner := ""
	if owners, scoped := ownersOfMessage(m.Type, m.Payload); scoped && len(owners) > 0 {
		owner = owners[0]
	}
	relay(r.dir, c, m, owner)
}

// Close releases the router's shard connections.
func (r *Router) Close() { r.dir.Close() }
