package wire

import (
	"context"
	"sync"
)

// Pool is the one way out of a node: an address-keyed set of multiplexed
// connections shared by everything that calls stores or peers. The zero
// value is ready to use; it must not be copied after first use.
//
//   - A live cached connection is returned as is; the hit path is one
//     mutex, one map lookup and one atomic load.
//   - A miss dials under the caller's context. One dial is in flight per
//     address, callers that arrive meanwhile wait for it under their own
//     contexts, and no lock is held across a dial, so a blackholed address
//     delays nobody asking for another one.
//   - A connection leaves the pool when the connection itself has died
//     (Client.Alive) — never because a call on it returned an error. A
//     typed reply (RemoteError, OverloadedError, NotLeaderError,
//     WrongShardError) or the caller's context ending says nothing about
//     the link, and closing a multiplexed connection over one of them
//     would fail every other call in flight on it.
type Pool struct {
	// Dial replaces DialContext; tests simulate partitions with it.
	Dial func(ctx context.Context, addr string) (*Client, error)

	mu     sync.Mutex
	conns  map[string]*pooled
	closed bool
}

// pooled is one address's slot: a dial in flight (c nil, ready open) or
// the connection it produced. c is written under Pool.mu.
type pooled struct {
	c     *Client
	ready chan struct{}
	// cancel ends the dial in flight; Close uses it.
	cancel context.CancelFunc
}

// Get returns the live connection to addr, dialing it under ctx if there
// is none.
func (p *Pool) Get(ctx context.Context, addr string) (*Client, error) {
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, ErrClosed
		}
		e := p.conns[addr]
		if e == nil || (e.c != nil && !e.c.Alive()) {
			return p.dial(ctx, addr)
		}
		c := e.c
		p.mu.Unlock()
		if c != nil {
			return c, nil
		}
		// Whatever comes of the dial in flight, look again: its error was
		// its caller's (whose time may have been shorter than ours), and a
		// failed dial leaves the slot free for us.
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// dial claims addr's slot, releases p.mu (held on entry) and dials.
func (p *Pool) dial(ctx context.Context, addr string) (*Client, error) {
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	e := &pooled{ready: make(chan struct{}), cancel: cancel}
	if p.conns == nil {
		p.conns = make(map[string]*pooled)
	}
	p.conns[addr] = e
	dial := p.Dial
	p.mu.Unlock()

	if dial == nil {
		dial = DialContext
	}
	c, err := dial(dctx, addr)

	p.mu.Lock()
	if p.closed {
		if c != nil {
			c.Close()
		}
		c, err = nil, ErrClosed
	}
	if err != nil && p.conns[addr] == e {
		delete(p.conns, addr)
	}
	e.c = c
	p.mu.Unlock()
	close(e.ready)
	return c, err
}

// Call issues one call on addr's pooled connection.
func (p *Pool) Call(ctx context.Context, addr, msgType string, req, resp any) error {
	c, err := p.Get(ctx, addr)
	if err != nil {
		return err
	}
	return c.Call(ctx, msgType, req, resp)
}

// Evict closes and forgets addr's connection, failing the calls in flight
// on it. It is for the caller that knows something the connection does
// not: the address was retired.
func (p *Pool) Evict(addr string) {
	p.mu.Lock()
	var c *Client
	if e := p.conns[addr]; e != nil && e.c != nil { // a dial in flight is its caller's
		c = e.c
		delete(p.conns, addr)
	}
	p.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// Close closes every connection and ends every dial in flight; pending
// and later Gets fail with ErrClosed.
func (p *Pool) Close() {
	p.mu.Lock()
	var live []*Client
	for _, e := range p.conns {
		if e.c != nil {
			live = append(live, e.c)
		} else {
			e.cancel()
		}
	}
	p.conns, p.closed = nil, true
	p.mu.Unlock()
	for _, c := range live {
		c.Close()
	}
}
