package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"gupster/internal/wire"
)

// Client routes wire calls across a sharded directory client-side: it
// holds the shard map, picks the owning shard per request, and chases
// wrong-shard redirects (adopting any newer map they carry) when its copy
// is stale. One Client multiplexes connections to every shard.
type Client struct {
	mu    sync.Mutex
	ring  *Ring
	conns map[string]*wire.Client // addr → connection
	seeds []string
}

// DialMap connects with a known shard map (in-process rigs, tests).
func DialMap(m wire.ShardMap) (*Client, error) {
	ring, err := BuildRing(m)
	if err != nil {
		return nil, err
	}
	return &Client{ring: ring, conns: make(map[string]*wire.Client)}, nil
}

// Dial bootstraps from any directory address: the first reachable seed is
// asked for its shard map. A seed answering with an empty map (an
// unsharded directory) yields a client that routes everything there.
func Dial(seeds ...string) (*Client, error) {
	c := &Client{conns: make(map[string]*wire.Client), seeds: append([]string(nil), seeds...)}
	var lastErr error
	for _, addr := range seeds {
		conn, err := c.conn(addr)
		if err != nil {
			lastErr = err
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		var m wire.ShardMap
		err = conn.Call(ctx, wire.TypeShardMap, wire.Empty{}, &m)
		cancel()
		if err != nil {
			lastErr = err
			c.drop(addr)
			continue
		}
		if len(m.Shards) == 0 {
			// Unsharded: synthesize a one-shard map around the seed.
			m = wire.ShardMap{Version: 1, Shards: []wire.ShardInfo{{ID: "solo", Addr: addr}}}
		}
		ring, err := BuildRing(m)
		if err != nil {
			return nil, err
		}
		c.ring = ring
		return c, nil
	}
	if lastErr == nil {
		lastErr = errors.New("shard: no seed addresses")
	}
	return nil, fmt.Errorf("shard: bootstrap failed: %w", lastErr)
}

// Map returns the client's current shard map.
func (c *Client) Map() wire.ShardMap {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Map()
}

// Call routes one owner-scoped call to the owning shard, following up to
// three wrong-shard redirects (each may carry a newer map, which the
// client adopts for every subsequent call) and one not-leader redirect
// inside the target constellation.
func (c *Client) Call(ctx context.Context, owner, msgType string, req, resp any) error {
	c.mu.Lock()
	target := c.ring.Owner(owner)
	c.mu.Unlock()

	rebootstrapped := false
	var err error
	for hops := 0; hops < 4; hops++ {
		err = c.callAddr(ctx, target.Addr, msgType, req, resp)
		if err == nil {
			return nil
		}
		var ws *wire.WrongShardError
		if errors.As(err, &ws) {
			if ws.Map != nil {
				c.adopt(*ws.Map)
			}
			if ws.Addr == "" || ws.Addr == target.Addr {
				return err
			}
			target = wire.ShardInfo{ID: ws.ShardID, Addr: ws.Addr, Members: ws.Members}
			continue
		}
		// A dead shard sends no redirect — the dial (or the stream) just
		// fails. The map may have moved on without us (auto-repair installs
		// a new epoch on the survivors), so refresh it once from the seeds
		// and the other known shards, and retry only if the owner now routes
		// somewhere else.
		if isTransportErr(err) && !rebootstrapped && ctx.Err() == nil {
			rebootstrapped = true
			if c.rebootstrap(ctx, target.Addr) {
				c.mu.Lock()
				next := c.ring.Owner(owner)
				c.mu.Unlock()
				if next.Addr != target.Addr {
					target = next
					continue
				}
			}
		}
		return err
	}
	return err
}

// rebootstrap re-fetches the shard map from the first reachable seed or
// known shard other than deadAddr, adopting anything newer. It reports
// whether any probe answered.
func (c *Client) rebootstrap(ctx context.Context, deadAddr string) bool {
	c.mu.Lock()
	cands := append([]string(nil), c.seeds...)
	if c.ring != nil {
		for _, s := range c.ring.Shards() {
			cands = append(cands, s.Addr)
		}
	}
	c.mu.Unlock()
	seen := map[string]bool{deadAddr: true}
	for _, addr := range cands {
		if seen[addr] || ctx.Err() != nil {
			continue
		}
		seen[addr] = true
		conn, err := c.conn(addr)
		if err != nil {
			continue
		}
		pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		var m wire.ShardMap
		err = conn.Call(pctx, wire.TypeShardMap, wire.Empty{}, &m)
		cancel()
		if err != nil {
			if isTransportErr(err) {
				c.drop(addr)
			}
			continue
		}
		if len(m.Shards) > 0 {
			c.adopt(m)
		}
		return true
	}
	return false
}

// callAddr issues one call, chasing a single not-leader hop.
func (c *Client) callAddr(ctx context.Context, addr, msgType string, req, resp any) error {
	conn, err := c.conn(addr)
	if err != nil {
		return err
	}
	err = conn.Call(ctx, msgType, req, resp)
	if err == nil {
		return nil
	}
	var nl *wire.NotLeaderError
	if errors.As(err, &nl) && nl.LeaderAddr != "" && nl.LeaderAddr != addr {
		lc, derr := c.conn(nl.LeaderAddr)
		if derr != nil {
			return err
		}
		return lc.Call(ctx, msgType, req, resp)
	}
	// Only a genuine transport failure warrants discarding the connection:
	// it is multiplexed, so closing it kills every other in-flight call.
	// Typed replies mean the shard answered (the link is healthy), and the
	// caller's own budget expiring says nothing about the link either.
	if isTransportErr(err) {
		c.drop(addr) // transport failure; redial next time
	}
	return err
}

// isTransportErr distinguishes a dead link from a healthy shard saying no:
// typed protocol replies and the caller's own context expiry are not
// transport failures.
func isTransportErr(err error) bool {
	var re *wire.RemoteError
	var wse *wire.WrongShardError
	var nle *wire.NotLeaderError
	var ove *wire.OverloadedError
	switch {
	case errors.As(err, &re), errors.As(err, &wse), errors.As(err, &nle), errors.As(err, &ove):
		return false
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return false
	}
	return true
}

// adopt installs a newer shard map learned from a redirect or refresh.
// Ordering is by (epoch, version): a repair epoch outranks any number of
// version bumps inside a stale epoch.
func (c *Client) adopt(m wire.ShardMap) {
	ring, err := BuildRing(m)
	if err != nil {
		return
	}
	c.mu.Lock()
	if c.ring == nil || CompareMaps(ring.Map(), c.ring.Map()) > 0 {
		c.ring = ring
	}
	c.mu.Unlock()
}

func (c *Client) conn(addr string) (*wire.Client, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if conn, ok := c.conns[addr]; ok {
		return conn, nil
	}
	conn, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	c.conns[addr] = conn
	return conn, nil
}

func (c *Client) drop(addr string) {
	c.mu.Lock()
	if conn, ok := c.conns[addr]; ok {
		conn.Close()
		delete(c.conns, addr)
	}
	c.mu.Unlock()
}

// Close releases every shard connection.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for addr, conn := range c.conns {
		conn.Close()
		delete(c.conns, addr)
	}
}
