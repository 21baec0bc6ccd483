package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

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
}

// RouterConfig parameterizes a Router.
type RouterConfig struct {
	// ForwardTimeout bounds forwarded calls that carry no budget of their
	// own. Zero means 10s.
	ForwardTimeout time.Duration
	// Logf, when set, receives routing events.
	Logf func(format string, args ...any)
}

// NewRouter builds a router over an initial shard map.
func NewRouter(m wire.ShardMap, cfg RouterConfig) (*Router, error) {
	dir := dirclient.New()
	if err := dir.Adopt(m); err != nil {
		return nil, err
	}
	if cfg.ForwardTimeout == 0 {
		cfg.ForwardTimeout = 10 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Router{cfg: cfg, dir: dir}, nil
}

// Install adopts a new shard map. The router holds no owners, so installs
// are plain: any mode is accepted and only the map matters.
func (r *Router) Install(req *wire.ShardInstallRequest) (uint64, error) {
	cur := r.dir.Map()
	if err := r.dir.Adopt(req.Map); err != nil { // installs only a newer map
		return 0, err
	}
	switch ring.Compare(req.Map, cur) {
	case -1:
		return 0, errStaleMap(req.Map, cur)
	case 0:
		if !sameMapContent(req.Map, cur) {
			return 0, errDivergentMap(req.Map)
		}
	}
	r.cfg.Logf("router: shard map v%d@e%d installed (%d shards)", req.Map.Version, req.Map.Epoch, len(req.Map.Shards))
	return req.Map.Version, nil
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
func (r *Router) ServeWire(c *wire.ServerConn, m *wire.Message) {
	switch m.Type {
	case wire.TypeShardMap:
		_ = c.Reply(m, r.dir.Map())
		return
	case wire.TypeShardInstall:
		var req wire.ShardInstallRequest
		if err := json.Unmarshal(m.Payload, &req); err != nil {
			_ = c.ReplyError(m, err)
			return
		}
		v, err := r.Install(&req)
		if err != nil {
			_ = c.ReplyError(m, err)
			return
		}
		_ = c.Reply(m, wire.ShardInstallResponse{Version: v})
		return
	}

	// Cross-shard batches go to the first owner's shard, which redirects
	// the rest; ownerless traffic (stats, trace reports) goes wherever the
	// directory last answered such a frame — the map's first shard until
	// it dies.
	owner := ""
	if owners, scoped := ownersOfMessage(m.Type, m.Payload); scoped && len(owners) > 0 {
		owner = owners[0]
	}
	ctx, cancel := wire.BudgetContext(context.Background(), m)
	if _, has := ctx.Deadline(); !has {
		ctx, cancel = context.WithTimeout(ctx, r.cfg.ForwardTimeout)
	}
	defer cancel()

	if m.ID == 0 {
		_ = r.dir.Send(ctx, owner, m.Type, json.RawMessage(m.Payload))
		return
	}
	var raw json.RawMessage
	err := r.dir.Call(ctx, owner, m.Type, json.RawMessage(m.Payload), &raw)
	if errors.Is(err, dirclient.ErrUnreachable) {
		// Every member is down: answer with the typed verdict instead of
		// letting the caller burn its deadline on a dead constellation.
		mp := r.dir.Map()
		err = &NoShardAvailableError{MapVersion: mp.Version, MapEpoch: mp.Epoch, LastErr: err}
	}
	if err != nil {
		replyForwardError(c, m, err)
		return
	}
	_ = c.Reply(m, raw)
}

// Close releases the router's shard connections.
func (r *Router) Close() { r.dir.Close() }
