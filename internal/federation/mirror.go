package federation

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"gupster/internal/core"
	"gupster/internal/dirclient"
	"gupster/internal/flight"
	"gupster/internal/resilience"
	"gupster/internal/trace"
	"gupster/internal/wire"
)

// This file implements the paper's reliability architecture (§4.2: the
// central repository "may be implemented as a constellation of connected
// servers … a family of mirrored servers"; §5.3: "Reliability will be
// achieved by having the logical single entry point be implemented by a
// constellation of GUPster servers"):
//
//   - Mirror fronts a local MDM and replicates every meta-data mutation
//     (coverage registrations, privacy-shield rules, change notices) to its
//     peer mirrors, so any mirror can answer any resolve,
//   - MirrorClient gives applications the logical single entry point: a
//     directory handle over the members plus backoff between passes.
//
// Replication is best-effort fan-out on the mutation path — exactly the
// UDDI-style mirroring the paper invokes; peers that are down or too slow
// for the caller's budget miss updates until re-registration (stores
// re-announce coverage on reconnect, so the registry is self-healing).

// peerHello marks a connection as a mirror-to-mirror link so forwarded
// mutations are not forwarded again (no loops).
const typePeerHello = "peer-hello"

// mutating message types that replicate across the constellation.
var mirroredTypes = map[string]bool{
	wire.TypeRegister:   true,
	wire.TypeUnregister: true,
	wire.TypePutRule:    true,
	wire.TypeDeleteRule: true,
	wire.TypeChanged:    true,
	// A heartbeat to any mirror renews the store's lease constellation-wide;
	// otherwise each mirror would quarantine every store heartbeating a
	// different member.
	wire.TypeHeartbeat: true,
}

// Mirror is one member of an MDM constellation.
type Mirror struct {
	mdm *core.MDM
	// mux answers peer hellos; everything else falls through to the local
	// core server, whose mutation routes are wrapped by replicate.
	mux *wire.Mux

	// peers is a set, not a wire.Pool cache: a mutation fans out to all of
	// it, and every new link does peer-hello plus a snapshot replay.
	mu    sync.Mutex
	peers map[string]*wire.Client // address → connection

	// peerConns tracks inbound connections that identified as peers.
	peerMu    sync.Mutex
	peerConns map[*wire.ServerConn]bool

	// keepers are the KeepPeer anti-entropy goroutines.
	keepStop chan struct{}
	keepOnce sync.Once
	keepG    sync.WaitGroup
}

// NewMirror fronts a local MDM.
func NewMirror(local *core.MDM) *Mirror {
	m := &Mirror{
		mdm:       local,
		peers:     make(map[string]*wire.Client),
		peerConns: make(map[*wire.ServerConn]bool),
		keepStop:  make(chan struct{}),
	}
	inner := core.NewServer(local).Mux
	for typ := range mirroredTypes {
		inner.Wrap(typ, m.replicate)
	}
	m.mux = &wire.Mux{Fallback: inner}
	wire.Handle(m.mux, typePeerHello, m.handlePeerHello)
	return m
}

// Serve starts the mirror's listener.
func (m *Mirror) Serve(addr string) (*wire.Server, error) {
	return wire.Serve(addr, m)
}

// AddPeer connects this mirror to a peer mirror; mutations will be
// forwarded there, and this mirror's current meta-data (coverage and
// shields) is replayed to the peer so late joiners catch up. Peering is
// directional — call on both sides (or use Join). ctx bounds the dial and
// the hello; the replay that follows is best-effort and runs to its end.
func (m *Mirror) AddPeer(ctx context.Context, addr string) error {
	c, err := wire.DialContext(ctx, addr)
	if err != nil {
		return err
	}
	if err := c.Call(ctx, typePeerHello, wire.Empty{}, nil); err != nil {
		c.Close()
		return err
	}
	// Install the peer first so concurrent mutations start forwarding, then
	// replay the snapshot — replays are idempotent, so overlap is harmless.
	m.mu.Lock()
	if old, ok := m.peers[addr]; ok {
		old.Close()
	}
	m.peers[addr] = c
	m.mu.Unlock()
	for _, reg := range m.mdm.CoverageSnapshot() {
		_ = c.Call(context.Background(), wire.TypeRegister, &reg, nil)
	}
	for _, rule := range m.mdm.ShieldSnapshot() {
		_ = c.Call(context.Background(), wire.TypePutRule, &rule, nil)
	}
	return nil
}

// KeepPeer maintains the peering with anti-entropy: it establishes the
// link as soon as the peer is reachable, probes it every interval, and —
// when the probe fails (the peer died or restarted) — re-peers and
// replays this mirror's full meta-data snapshot, so a restarted peer
// recovers the directory it lost without waiting for stores to
// re-register. Runs until Close.
func (m *Mirror) KeepPeer(addr string, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	m.keepG.Add(1)
	go func() {
		defer m.keepG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			m.ensurePeer(addr, interval)
			select {
			case <-m.keepStop:
				return
			case <-t.C:
			}
		}
	}()
}

// ensurePeer probes an existing peer link, or (re-)establishes it. A dead
// link is dropped and re-peered via AddPeer, whose snapshot replay is the
// anti-entropy: idempotent at the receiver, complete for a peer that
// restarted empty.
func (m *Mirror) ensurePeer(addr string, timeout time.Duration) {
	m.mu.Lock()
	c := m.peers[addr]
	m.mu.Unlock()
	if c != nil {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		err := c.Call(ctx, typePeerHello, wire.Empty{}, nil)
		cancel()
		if err == nil {
			return
		}
		m.mu.Lock()
		if m.peers[addr] == c {
			delete(m.peers, addr)
		}
		m.mu.Unlock()
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	_ = m.AddPeer(ctx, addr)
}

// Join wires a set of mirrors into a full mesh.
func Join(mirrors []*Mirror, addrs []string) error {
	if len(mirrors) != len(addrs) {
		return errors.New("federation: mirrors/addrs length mismatch")
	}
	for i, m := range mirrors {
		for j, addr := range addrs {
			if i == j {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			err := m.AddPeer(ctx, addr)
			cancel()
			if err != nil {
				return fmt.Errorf("federation: peering %d→%d: %w", i, j, err)
			}
		}
	}
	return nil
}

// Close stops the KeepPeer goroutines and shuts down peer links (the
// listener is closed by its owner).
func (m *Mirror) Close() {
	m.keepOnce.Do(func() { close(m.keepStop) })
	m.keepG.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	for addr, c := range m.peers {
		c.Close()
		delete(m.peers, addr)
	}
}

// ServeWire implements wire.Handler.
func (m *Mirror) ServeWire(c *wire.ServerConn, msg *wire.Message) { m.mux.ServeWire(c, msg) }

// handlePeerHello is a raw handler because it marks the connection: what
// arrives on a mirror-to-mirror link is applied, never forwarded again.
func (m *Mirror) handlePeerHello(c *wire.ServerConn, msg *wire.Message, _ *wire.Empty) {
	m.peerMu.Lock()
	m.peerConns[c] = true
	m.peerMu.Unlock()
	c.OnClose(func() {
		m.peerMu.Lock()
		delete(m.peerConns, c)
		m.peerMu.Unlock()
	})
	_ = c.Reply(msg, wire.Empty{})
}

// replicate wraps the local server's mutation routes: a mutation from a
// client or store — not one that arrived over a peer link — is applied
// locally first, and only one the local server accepted is fanned out to
// the peers, before the dispatcher replies: when the caller's
// acknowledgement arrives, the constellation has converged. Apply-then-
// fan-out also means a mutation is in the snapshot AddPeer replays or in a
// fan-out that includes the new peer, possibly both (replays are
// idempotent), never in neither.
func (m *Mirror) replicate(ctx context.Context, c *wire.ServerConn, msg *wire.Message, apply func(context.Context) (any, error)) (any, error) {
	resp, err := apply(ctx)
	m.peerMu.Lock()
	fromPeer := m.peerConns[c]
	m.peerMu.Unlock()
	if err != nil || fromPeer {
		return resp, err
	}
	m.mu.Lock()
	peers := make([]*wire.Client, 0, len(m.peers))
	for _, p := range m.peers {
		peers = append(peers, p)
	}
	m.mu.Unlock()
	// The fan-out lives inside the caller's budget (wire.ForwardTimeout for
	// a frame without one): a peer that holds TCP open and never answers
	// costs the caller that long, not this connection's serve loop forever.
	rctx, cancel := wire.ForwardContext(ctx, nil)
	defer cancel()
	// A traced mutation records the fan-out as a span of its own site in
	// the local MDM's collector.
	rctx, rsp := trace.Start(trace.WithRemote(rctx, msg.Trace, "mirror", m.mdm.Tracer()), "mirror.replicate")
	// All peers concurrently (bounded pool): convergence latency is the
	// slowest peer, not the sum. Best-effort: a dead peer misses the update;
	// stores re-register on reconnect.
	_ = flight.ForEach(rctx, len(peers), flight.DefaultWorkers, func(i int) error {
		_ = peers[i].Call(rctx, msg.Type, msg.Payload, nil)
		return nil
	})
	rsp.Finish(nil)
	return resp, nil
}

// ErrAllMirrorsDown reports that no member of the constellation answered.
var ErrAllMirrorsDown = errors.New("federation: all mirrors unreachable")

// MirrorClient is the application's logical single entry point to a
// constellation. Finding the member to talk to — failing over off a dead
// one, following a redirect to the leader — is the directory handle's
// job; what MirrorClient adds is patience: a pass over the constellation
// that found nobody (or only an election in progress) is retried after
// capped, jittered backoff so a blinking constellation is not hammered.
// Application-level errors (denials, spurious queries) are returned
// as-is — they would fail identically everywhere. Safe for concurrent use.
type MirrorClient struct {
	dir *dirclient.Directory
	res *resilience.Group
}

// DialMirrors creates a failover client over the constellation's addresses.
func DialMirrors(addrs []string) (*MirrorClient, error) {
	if len(addrs) == 0 {
		return nil, errors.New("federation: no mirror addresses")
	}
	dir, err := dirclient.Dial(addrs...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrAllMirrorsDown, err)
	}
	return &MirrorClient{
		dir: dir,
		res: resilience.NewGroup(
			resilience.Policy{MaxAttempts: 2, BaseDelay: 20 * time.Millisecond, MaxDelay: 200 * time.Millisecond},
			resilience.BreakerConfig{},
			nil,
		),
	}, nil
}

// Call invokes one MDM operation with failover: a pass that reached no
// member is retried after backoff, anything else is the answer.
func (mc *MirrorClient) Call(ctx context.Context, msgType string, req, resp any) error {
	var err error
	for pass := 0; pass < mc.res.Policy.MaxAttempts; pass++ {
		if pass > 0 {
			if resilience.Sleep(ctx, mc.res.Backoff(pass-1)) != nil {
				break
			}
		}
		err = mc.dir.Call(ctx, "", msgType, req, resp)
		if !errors.Is(err, dirclient.ErrUnreachable) {
			return err
		}
	}
	return fmt.Errorf("%w: %v", ErrAllMirrorsDown, err)
}

// Resolve is the common operation, with failover.
func (mc *MirrorClient) Resolve(ctx context.Context, req *wire.ResolveRequest) (*wire.ResolveResponse, error) {
	var resp wire.ResolveResponse
	if err := mc.Call(ctx, wire.TypeResolve, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Close tears down the client's connections.
func (mc *MirrorClient) Close() { mc.dir.Close() }
