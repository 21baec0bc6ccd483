// Package dirclient is the one client-side handle on the logical
// directory. The paper's MDM is a single entry point; behind it this
// repository puts a quorum constellation, a shard ring and a self-healing
// map, and every consumer — application clients, store registrars, the
// constellation failover client, the rebalance coordinator and routers
// forwarding to the shards — has to answer "where is the directory now?".
// A Directory answers it once: it owns the seed list, the adopted shard
// map, where each constellation last answered, and the address-keyed
// connection pool, and it applies one rule set to every call:
//
//   - A typed redirect (not-leader, wrong-shard) adopts any map it carries
//     that is newer by (epoch, version) and retries at the address it
//     names. At most maxHops redirects are followed per call. Adopting a
//     newer map, from a redirect or a probe, is one Info "map adopted"
//     event naming the address that supplied it.
//   - A redirect that leads nowhere new — no leader elected yet, the
//     replier names itself or an address that just failed, or the replier's
//     map is older than ours — waits settle once and asks again.
//   - A transport failure drops that one connection and moves on, once
//     each, through where the constellation last answered, the map's
//     shards and the seeds. Every newly dialed connection is asked for its
//     shard map, so a rotation also refreshes a stale map.
//   - A RemoteError, an OverloadedError and the caller's own context
//     expiring are answers, not link failures: they are returned untouched
//     and the multiplexed connection is kept.
//   - Success is sticky: the next call starts where the last was answered.
package dirclient

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gupster/internal/dirclient/ring"
	"gupster/internal/wire"
)

// maxHops bounds the redirects followed within one call: wrong shard,
// not-leader inside the target constellation, one leadership or map move
// on each, and one to spare. Past it the topology is churning and the
// caller should see the redirect.
const maxHops = 5

// settle is the pause before re-asking a node whose redirect led nowhere
// new. Elections and install sweeps settle in a few of these.
const settle = 50 * time.Millisecond

// ErrUnreachable reports that every known directory address failed at the
// transport level. It wraps the last such failure.
var ErrUnreachable = errors.New("dirclient: no directory address reachable")

// Directory is a handle on one logical directory, whatever stands behind
// it. Safe for concurrent use. On a healthy connection Call costs one
// atomic load and the wire call.
type Directory struct {
	view atomic.Pointer[view]

	// mu serializes view replacement; it is never held across I/O.
	mu     sync.Mutex
	closed bool
}

// view is an immutable snapshot of everything routing reads. Updates
// copy it.
type view struct {
	seeds []string
	ring  *ring.Ring // nil until a shard map is adopted
	// at maps a constellation to the address that last answered for it:
	// a shard ID, or "" for an unsharded directory and ownerless calls.
	at map[string]string
	// conns is not a wire.Pool: membership swaps atomically with the
	// routes above, and every new connection is asked for its shard map.
	conns map[string]*wire.Client
}

func (v *view) clone() *view {
	nv := &view{
		seeds: v.seeds,
		ring:  v.ring,
		at:    make(map[string]string, len(v.at)+1),
		conns: make(map[string]*wire.Client, len(v.conns)+1),
	}
	for k, a := range v.at {
		nv.at[k] = a
	}
	for a, c := range v.conns {
		nv.conns[a] = c
	}
	return nv
}

// target routes an owner: the constellation serving it and the address to
// try first ("" when nothing is known yet).
func (v *view) target(owner string) (id, addr string) {
	if v.ring != nil && owner != "" {
		s := v.ring.Owner(owner)
		id, addr = s.ID, s.Addr
	}
	if a, ok := v.at[id]; ok {
		addr = a
	}
	return id, addr
}

// avoid keeps addr unless it is unknown or already failed during this
// call, in which case the constellation's next fallback stands in ("" when
// none is left).
func (v *view) avoid(id, addr string, failed []string) string {
	if addr == "" || slices.Contains(failed, addr) {
		return v.fallback(id, failed)
	}
	return addr
}

// fallback picks the next address worth trying for constellation id that
// has not failed during this call: where it last answered, its own
// members, every other shard, then the seeds.
func (v *view) fallback(id string, failed []string) string {
	fresh := func(addrs ...string) string {
		for _, a := range addrs {
			if a != "" && !slices.Contains(failed, a) {
				return a
			}
		}
		return ""
	}
	if a := fresh(v.at[id]); a != "" {
		return a
	}
	if v.ring != nil {
		shards := v.ring.Shards()
		for _, own := range []bool{true, false} {
			for _, s := range shards {
				if (s.ID == id) != own {
					continue
				}
				if a := fresh(append([]string{s.Addr}, s.Members...)...); a != "" {
					return a
				}
			}
		}
	}
	return fresh(v.seeds...)
}

// New returns a handle that dials lazily, starting from seeds.
func New(seeds ...string) *Directory {
	d := &Directory{}
	d.view.Store(&view{at: map[string]string{}, conns: map[string]*wire.Client{}})
	d.AddSeeds(seeds...)
	return d
}

// Dial returns a handle connected to the first reachable seed.
func Dial(seeds ...string) (*Directory, error) {
	d := New(seeds...)
	var failed []string
	var lastErr error
	for {
		addr := d.view.Load().fallback("", failed)
		if addr == "" {
			return nil, unreachable(lastErr)
		}
		// One budget per seed, covering its dial and its map probe: a
		// blackholed seed must not use up the next one's.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err := d.open(ctx, addr, false)
		cancel()
		if err != nil {
			failed, lastErr = append(failed, addr), err
			continue
		}
		d.stick("", addr)
		return d, nil
	}
}

func unreachable(last error) error {
	if last == nil {
		return fmt.Errorf("%w: no seed addresses", ErrUnreachable)
	}
	return fmt.Errorf("%w: %w", ErrUnreachable, last)
}

// AddSeeds adds fallback addresses (constellation members, shard peers).
func (d *Directory) AddSeeds(addrs ...string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	nv := d.view.Load().clone()
	nv.seeds = append([]string(nil), nv.seeds...)
	for _, a := range addrs {
		if a != "" && !slices.Contains(nv.seeds, a) {
			nv.seeds = append(nv.seeds, a)
		}
	}
	d.view.Store(nv)
}

// Adopt installs a shard map if it is newer, by (epoch, version), than the
// one held; an older or equal map is ignored. It fails only on a map no
// ring can be built from.
func (d *Directory) Adopt(m wire.ShardMap) error {
	r, err := ring.Build(m)
	if err != nil {
		return err
	}
	d.adopt(r, "caller")
	return nil
}

// adopt reports how r compared to the held ring: positive and installed,
// zero (same coordinates) or negative (older) and ignored. An installed
// map is an event naming from, the address that supplied it ("caller"
// for Adopt's).
func (d *Directory) adopt(r *ring.Ring, from string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	v := d.view.Load()
	if v.ring != nil {
		if c := ring.Compare(r.Map(), v.ring.Map()); c <= 0 {
			return c
		}
	}
	slog.Info("map adopted", "version", r.Version(), "epoch", r.Epoch(), "from", from)
	nv := v.clone()
	nv.ring = r
	// Shard hints were learnt under the old map; only the ownerless home
	// survives it.
	nv.at = map[string]string{}
	if home, ok := v.at[""]; ok {
		nv.at[""] = home
	}
	d.view.Store(nv)
	return 1
}

// Map returns the adopted shard map, the zero map while the directory is
// not known to be sharded.
func (d *Directory) Map() wire.ShardMap {
	if r := d.view.Load().ring; r != nil {
		return r.Map()
	}
	return wire.ShardMap{}
}

// Sharded reports whether a shard map has been adopted — whether passing
// an owner to Call changes where it goes.
func (d *Directory) Sharded() bool { return d.view.Load().ring != nil }

// AddrFor returns the best address for owner right now, for the caller
// that needs a socket of its own there; "" when nothing is known.
func (d *Directory) AddrFor(owner string) string {
	v := d.view.Load()
	id, addr := v.target(owner)
	return v.avoid(id, addr, nil)
}

// Call issues one directory call under the package's rule set. owner
// scopes it to a profile owner's home shard; "" is for calls no owner
// scopes (stats, heartbeats, traces).
func (d *Directory) Call(ctx context.Context, owner, typ string, req, resp any) error {
	_, err := d.call(ctx, owner, typ, req, resp, false)
	return err
}

// Dedicated is Call on a socket the caller will own — a push
// subscription's notification stream lives on the connection that
// subscribed. Every attempt dials afresh outside the pool; the socket
// that answered is returned, abandoned ones are closed.
func (d *Directory) Dedicated(ctx context.Context, owner, typ string, req, resp any) (*wire.Client, error) {
	return d.call(ctx, owner, typ, req, resp, true)
}

func (d *Directory) call(ctx context.Context, owner, typ string, req, resp any, dedicated bool) (*wire.Client, error) {
	var (
		failed       []string // addresses that failed at transport level in this call
		lastFail     error
		next, nextID string // where the last redirect pointed
		hops         int
	)
	for {
		v := d.view.Load()
		routedID, routed := v.target(owner)
		id, addr := routedID, routed
		if next != "" {
			id, addr = nextID, next
		}
		if addr = v.avoid(id, addr, failed); addr == "" {
			return nil, unreachable(lastFail)
		}
		var err error
		conn := v.conns[addr]
		if conn == nil || dedicated {
			conn, err = d.open(ctx, addr, dedicated)
		}
		if err == nil {
			if err = conn.Call(ctx, typ, req, resp); err == nil {
				if addr != routed && id == routedID {
					d.stick(id, addr)
				}
				return conn, nil
			}
			if dedicated {
				conn.Close()
			}
		}

		var to, toID string
		var ws *wire.WrongShardError
		var nl *wire.NotLeaderError
		switch {
		case errors.As(err, &ws):
			to, toID = ws.Addr, ws.ShardID
			if ws.Map != nil {
				if r, berr := ring.Build(*ws.Map); berr == nil && d.adopt(r, addr) < 0 {
					to = "" // the replier is behind us: our ring knows better
				}
			}
		case errors.As(err, &nl):
			to, toID = nl.LeaderAddr, id
		case !transport(err):
			return nil, err
		default:
			if !dedicated && conn != nil {
				d.drop(addr, conn)
			}
			failed, lastFail = append(failed, addr), err
			next = ""
			continue
		}
		if hops++; hops > maxHops {
			return nil, err
		}
		if to == "" || to == addr || slices.Contains(failed, to) {
			t := time.NewTimer(settle)
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, err
			case <-t.C:
			}
			continue
		}
		next, nextID = to, toID
	}
}

// Send writes a one-way frame toward owner's home. There is no reply to
// carry a redirect, so it only rotates past addresses that refuse the
// dial.
func (d *Directory) Send(ctx context.Context, owner, typ string, req any) error {
	var failed []string
	var lastFail error
	for {
		v := d.view.Load()
		id, addr := v.target(owner)
		if addr = v.avoid(id, addr, failed); addr == "" {
			return unreachable(lastFail)
		}
		conn := v.conns[addr]
		if conn == nil {
			var err error
			if conn, err = d.open(ctx, addr, false); err != nil {
				failed, lastFail = append(failed, addr), err
				continue
			}
		}
		err := conn.Send(ctx, typ, req)
		if err != nil {
			d.drop(addr, conn)
		}
		return err
	}
}

// transport is the one test for "the link failed": typed redirects are
// matched before it, and a directory that answered no, a directory that
// shed, and a caller whose time ran out all leave the link healthy.
func transport(err error) bool {
	var re *wire.RemoteError
	var ov *wire.OverloadedError
	return !errors.As(err, &re) && !errors.As(err, &ov) &&
		!errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled)
}

// open returns a connection to addr: a fresh one the caller owns when
// dedicated, else the pooled one, dialed and asked for its shard map on
// first use.
func (d *Directory) open(ctx context.Context, addr string, dedicated bool) (*wire.Client, error) {
	conn, err := wire.DialContext(ctx, addr)
	if err != nil || dedicated {
		return conn, err
	}
	d.mu.Lock()
	v := d.view.Load()
	if d.closed {
		d.mu.Unlock()
		conn.Close()
		return nil, wire.ErrClosed
	}
	if pooled := v.conns[addr]; pooled != nil {
		d.mu.Unlock()
		conn.Close() // lost a dial race
		return pooled, nil
	}
	nv := v.clone()
	nv.conns[addr] = conn
	d.view.Store(nv)
	d.mu.Unlock()

	// Best effort: an unsharded directory refuses the probe, an empty map
	// builds no ring.
	var m wire.ShardMap
	if conn.Call(ctx, wire.TypeShardMap, wire.Empty{}, &m) == nil {
		if r, err := ring.Build(m); err == nil {
			d.adopt(r, addr)
		}
	}
	return conn, nil
}

// drop discards conn after a transport failure, unless the pool already
// holds a newer connection to addr.
func (d *Directory) drop(addr string, conn *wire.Client) {
	d.mu.Lock()
	if v := d.view.Load(); v.conns[addr] == conn {
		nv := v.clone()
		delete(nv.conns, addr)
		d.view.Store(nv)
	}
	d.mu.Unlock()
	conn.Close()
}

// stick records that constellation id was last answered at addr.
func (d *Directory) stick(id, addr string) {
	d.mu.Lock()
	if v := d.view.Load(); v.at[id] != addr {
		nv := v.clone()
		nv.at[id] = addr
		d.view.Store(nv)
	}
	d.mu.Unlock()
}

// Close releases every pooled connection. Dedicated sockets belong to
// their callers.
func (d *Directory) Close() {
	d.mu.Lock()
	v := d.view.Load()
	d.closed = true
	nv := v.clone()
	nv.conns = map[string]*wire.Client{}
	d.view.Store(nv)
	d.mu.Unlock()
	for _, c := range v.conns {
		c.Close()
	}
}
