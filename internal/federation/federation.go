// Package federation implements the architectural variants of §5.1 of the
// paper — the alternatives to a single centralized meta-data manager:
//
//   - WhitePages: the "UDDI-like universally available white pages" that map
//     a personal identifier to the MDM managing that user's meta-data, with
//     support for "unlisted" pointers (§5.1.2, user-level distributed MDM),
//   - Node: a hierarchical MDM that manages most of a user's meta-data
//     itself but delegates designated profile subtrees to other MDMs (the
//     bank holds the wallet meta-data, the portal holds gaming), knowing
//     that the delegated meta-data exists but nothing about it,
//   - Locator: the client-side discovery flow — ask the white pages, dial
//     the user's MDM, resolve, following delegations transparently.
package federation

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"gupster/internal/core"
	"gupster/internal/wire"
	"gupster/internal/xpath"
)

// Discovery errors.
var (
	// ErrUnlisted means the user exists but chose not to publish an MDM
	// pointer; applications must learn the address out of band (§5.1.2).
	ErrUnlisted = errors.New("federation: user is unlisted")
	// ErrUnknownUser means the white pages have no entry at all.
	ErrUnknownUser = errors.New("federation: unknown user")
)

// WhitePages maps user identities to the MDM managing their meta-data.
// Safe for concurrent use.
type WhitePages struct {
	mu      sync.RWMutex
	entries map[string]wpEntry
}

type wpEntry struct {
	addr     string
	unlisted bool
}

// NewWhitePages returns an empty directory.
func NewWhitePages() *WhitePages {
	return &WhitePages{entries: make(map[string]wpEntry)}
}

// Set publishes (or, with unlisted=true, hides) a user's MDM pointer.
func (w *WhitePages) Set(user, addr string, unlisted bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.entries[user] = wpEntry{addr: addr, unlisted: unlisted}
}

// Lookup resolves a user to an MDM address.
func (w *WhitePages) Lookup(user string) (string, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	e, ok := w.entries[user]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrUnknownUser, user)
	}
	if e.unlisted {
		return "", fmt.Errorf("%w: %s", ErrUnlisted, user)
	}
	return e.addr, nil
}

// Serve exposes the white pages over the wire protocol (who-has).
func (w *WhitePages) Serve(addr string) (*wire.Server, error) {
	x := &wire.Mux{}
	wire.Route(x, wire.TypeWhoHas, func(_ context.Context, req *wire.WhoHasRequest) (wire.WhoHasResponse, error) {
		a, err := w.Lookup(req.User)
		if errors.Is(err, ErrUnlisted) {
			return wire.WhoHasResponse{Unlisted: true}, nil
		}
		return wire.WhoHasResponse{Address: a}, err
	})
	return wire.Serve(addr, x)
}

// Delegation hands meta-data management for a profile subtree to another
// MDM node.
type Delegation struct {
	// Path scopes the delegation (e.g. /user[@id='alice']/wallet).
	Path xpath.Path
	// Addr is the delegate MDM's wire address.
	Addr string
}

// Node is a hierarchical MDM: a local core.MDM plus delegations. A request
// whose path falls inside a delegated subtree is forwarded; everything else
// resolves locally. The node knows *that* delegated meta-data exists but
// none of its content — the privacy property §5.1.2 asks for.
type Node struct {
	Local *core.MDM

	mu          sync.RWMutex
	delegations []Delegation

	delegates wire.Pool
}

// NewNode wraps a local MDM.
func NewNode(local *core.MDM) *Node {
	return &Node{Local: local}
}

// Delegate routes requests under path to the MDM at addr.
func (n *Node) Delegate(path xpath.Path, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.delegations = append(n.delegations, Delegation{Path: path, Addr: addr})
}

// Delegations lists the node's delegations.
func (n *Node) Delegations() []Delegation {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return append([]Delegation(nil), n.delegations...)
}

func (n *Node) delegateFor(p xpath.Path) (Delegation, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	for _, d := range n.delegations {
		if xpath.Covers(d.Path, p) == xpath.CoverFull {
			return d, true
		}
	}
	return Delegation{}, false
}

// Resolve answers a request, forwarding into the hierarchy when a
// delegation covers the path. The response's Hops field counts forwards.
func (n *Node) Resolve(ctx context.Context, req *wire.ResolveRequest) (*wire.ResolveResponse, error) {
	p, err := xpath.Parse(req.Path)
	if err != nil {
		return nil, fmt.Errorf("federation: %w", err)
	}
	if d, ok := n.delegateFor(p); ok {
		var resp wire.ResolveResponse
		if err := n.delegates.Call(ctx, d.Addr, wire.TypeResolve, req, &resp); err != nil {
			return nil, err
		}
		resp.Hops++
		return &resp, nil
	}
	return n.Local.Resolve(ctx, req)
}

// Serve exposes the node over the wire protocol: a plain core server for
// the local MDM whose resolve route delegates. The route is served like any
// other — under the frame's trace header and budget, which ride into the
// forwarded hop, and through the local MDM's admission.
func (n *Node) Serve(addr string) (*wire.Server, error) {
	inner := core.NewServer(n.Local)
	wire.Route(inner.Mux, wire.TypeResolve, n.Resolve)
	return wire.Serve(addr, inner.Mux)
}

// Close releases delegate connections.
func (n *Node) Close() { n.delegates.Close() }

// Locator is the client-side discovery flow for user-level distributed
// MDMs: white pages first, then the user's MDM.
type Locator struct {
	whitePages string
	// conns reaches the white pages and every MDM they pointed at.
	conns wire.Pool
}

// NewLocator dials the white pages.
func NewLocator(whitePagesAddr string) (*Locator, error) {
	l := &Locator{whitePages: whitePagesAddr}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := l.conns.Get(ctx, whitePagesAddr); err != nil {
		return nil, err
	}
	return l, nil
}

// Close tears down all connections.
func (l *Locator) Close() { l.conns.Close() }

// WhoHas asks the white pages for a user's MDM address.
func (l *Locator) WhoHas(ctx context.Context, user string) (string, error) {
	var resp wire.WhoHasResponse
	if err := l.conns.Call(ctx, l.whitePages, wire.TypeWhoHas, &wire.WhoHasRequest{User: user}, &resp); err != nil {
		return "", err
	}
	if resp.Unlisted {
		return "", fmt.Errorf("%w: %s", ErrUnlisted, user)
	}
	return resp.Address, nil
}

// Resolve discovers the user's MDM and resolves there (one extra hop for
// the discovery itself is not counted in Hops — it is a directory lookup,
// not an MDM forward).
func (l *Locator) Resolve(ctx context.Context, user string, req *wire.ResolveRequest) (*wire.ResolveResponse, error) {
	addr, err := l.WhoHas(ctx, user)
	if err != nil {
		return nil, err
	}
	var resp wire.ResolveResponse
	if err := l.conns.Call(ctx, addr, wire.TypeResolve, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
