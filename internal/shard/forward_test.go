package shard_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gupster/internal/dirclient/ring"
	"gupster/internal/policy"
	"gupster/internal/shard"
	"gupster/internal/token"
	"gupster/internal/wire"
)

// peerShard is a fake destination shard for forwarded frames. Resolves for
// the owner named special get the typed reply under test at once; every
// other resolve is held until release closes and then answered. It records
// each distinct connection it was spoken to on.
type peerShard struct {
	srv     *wire.Server
	special string
	typed   func(c *wire.ServerConn, m *wire.Message)
	release chan struct{}
	held    atomic.Int64

	mu    sync.Mutex
	conns map[*wire.ServerConn]bool
}

func (p *peerShard) ServeWire(c *wire.ServerConn, m *wire.Message) {
	p.mu.Lock()
	p.conns[c] = true
	special, typed := p.special, p.typed
	p.mu.Unlock()
	if m.Type != wire.TypeResolve {
		_ = c.ReplyError(m, errors.New("unknown message type"))
		return
	}
	var req wire.ResolveRequest
	_ = wire.Unmarshal(m.Payload, &req)
	if req.Context.Requester == special {
		typed(c, m)
		return
	}
	p.held.Add(1)
	go func() {
		<-p.release
		_ = c.Reply(m, wire.ResolveResponse{})
	}()
}

func (p *peerShard) connections() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns)
}

func resolveFor(ctx context.Context, conn *wire.Client, owner string) error {
	var resp wire.ResolveResponse
	return conn.Call(ctx, wire.TypeResolve, &wire.ResolveRequest{
		Path:    fmt.Sprintf("/user[@id='%s']/presence", owner),
		Context: policy.Context{Requester: owner},
		Verb:    token.VerbFetch,
	}, &resp)
}

// Regression: shard.Node and shard.Router used to close the pooled,
// multiplexed connection to a peer shard whenever a forward came back with
// anything but a RemoteError — a wrong-shard redirect (which the node's
// own install-sweep loop retries five times), an overload shed, the
// caller's deadline. Closing it failed every other forward in flight on
// it. A typed reply or an expired caller says nothing about the link: the
// others must complete, on the same connection.
func TestForwardersKeepPeerLinkOnTypedReplies(t *testing.T) {
	const inflight = 4
	replies := map[string]func(peer *peerShard) func(*wire.ServerConn, *wire.Message){
		"overloaded": func(*peerShard) func(*wire.ServerConn, *wire.Message) {
			return func(c *wire.ServerConn, m *wire.Message) {
				_ = c.ReplyError(m, &wire.OverloadedError{RetryAfter: time.Millisecond, Reason: "shed"})
			}
		},
		"wrong-shard": func(p *peerShard) func(*wire.ServerConn, *wire.Message) {
			return func(c *wire.ServerConn, m *wire.Message) {
				_ = c.ReplyError(m, &wire.WrongShardError{ShardID: "peer", Addr: p.srv.Addr()})
			}
		},
		"caller deadline": func(*peerShard) func(*wire.ServerConn, *wire.Message) {
			return func(*wire.ServerConn, *wire.Message) {} // never answers
		},
	}
	// Each forwarder is served on a listener of its own and forwards every
	// owner in moved to the peer.
	forwarders := map[string]func(t *testing.T, peer *peerShard) (addr string, moved []string){
		"node": func(t *testing.T, peer *peerShard) (string, []string) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			node := shard.NewNode(shard.NodeConfig{
				ShardID: "self", Logf: t.Logf,
				Inner: wire.HandlerFunc(func(c *wire.ServerConn, m *wire.Message) {
					_ = c.ReplyError(m, errors.New("served locally"))
				}),
			})
			ws := wire.ServeListener(ln, node)
			t.Cleanup(func() { ws.Close(); node.Close() })
			self := wire.ShardInfo{ID: "self", Addr: ws.Addr()}
			v1 := wire.ShardMap{Version: 1, Shards: []wire.ShardInfo{self}}
			v2 := wire.ShardMap{Version: 2, Shards: []wire.ShardInfo{self, {ID: "peer", Addr: peer.srv.Addr()}}}
			if _, err := node.Install(&wire.ShardInstallRequest{Map: v1}); err != nil {
				t.Fatal(err)
			}
			// A long drain window: everything v2 moved to the peer forwards.
			if _, err := node.Install(&wire.ShardInstallRequest{Map: v2, Mode: "drain", ForwardMillis: 60_000}); err != nil {
				t.Fatal(err)
			}
			r, err := ring.Build(v2)
			if err != nil {
				t.Fatal(err)
			}
			var moved []string
			for i := 0; len(moved) < inflight+1; i++ {
				if o := fmt.Sprintf("user-%d", i); r.Owner(o).ID == "peer" {
					moved = append(moved, o)
				}
			}
			return ws.Addr(), moved
		},
		"router": func(t *testing.T, peer *peerShard) (string, []string) {
			ws := serveRouter(t, wire.ShardMap{Version: 1, Shards: []wire.ShardInfo{{ID: "peer", Addr: peer.srv.Addr()}}})
			var moved []string
			for i := 0; i < inflight+1; i++ {
				moved = append(moved, fmt.Sprintf("user-%d", i))
			}
			return ws.Addr(), moved
		},
	}

	for fname, start := range forwarders {
		for rname, reply := range replies {
			t.Run(fname+"/"+rname, func(t *testing.T) {
				peer := &peerShard{release: make(chan struct{}), conns: map[*wire.ServerConn]bool{}}
				srv, err := wire.Serve("127.0.0.1:0", peer)
				if err != nil {
					t.Fatal(err)
				}
				peer.srv = srv
				t.Cleanup(func() { srv.Close() })
				addr, moved := start(t, peer)
				peer.mu.Lock()
				peer.special, peer.typed = moved[inflight], reply(peer)
				peer.mu.Unlock()

				// The forwarder serves one frame at a time per inbound
				// connection, so each concurrent forward gets its own.
				dial := func() *wire.Client {
					c, err := wire.Dial(addr)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { c.Close() })
					return c
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				results := make(chan error, inflight)
				for i := 0; i < inflight; i++ {
					conn, owner := dial(), moved[i]
					go func() { results <- resolveFor(ctx, conn, owner) }()
				}
				for deadline := time.Now().Add(5 * time.Second); peer.held.Load() < inflight; {
					if time.Now().After(deadline) {
						t.Fatalf("peer holds %d of %d forwards", peer.held.Load(), inflight)
					}
					time.Sleep(time.Millisecond)
				}

				// The odd one out is answered typed (or not at all) while
				// the others are still in flight on the same peer link.
				odd := dial()
				octx, ocancel := context.WithTimeout(ctx, 300*time.Millisecond)
				err = resolveFor(octx, odd, peer.special)
				ocancel()
				if err == nil {
					t.Fatal("the odd forward succeeded")
				}
				// Frames on one inbound connection are served in order: when
				// this one is answered the forwarder is done with the odd one.
				_ = odd.Call(ctx, wire.TypeShardMap, wire.Empty{}, nil)

				close(peer.release)
				for i := 0; i < inflight; i++ {
					if err := <-results; err != nil {
						t.Errorf("a forward in flight beside the %s reply failed: %v", rname, err)
					}
				}
				if err := resolveFor(ctx, dial(), moved[0]); err != nil {
					t.Fatalf("forward after the %s reply: %v", rname, err)
				}
				if n := peer.connections(); n != 1 {
					t.Fatalf("forwarder spoke to the peer on %d connections, want the one pooled link kept", n)
				}
			})
		}
	}
}

// A router relays a chained reply without looking at it: the component the
// shard sent is the component the client reads, byte for byte — the
// characters JSON would have escaped and bytes that are not UTF-8 included
// — and so is everything beside it.
func TestRouterRelaysAComponentUntouched(t *testing.T) {
	want := wire.ResolveResponse{
		Data:     "<book title=\"a &amp; b\">✓ 日本 <!-- \xff\xfe not utf-8 --></book>",
		Cached:   true,
		Hops:     2,
		Degraded: []string{"/user[@id='u']/calendar"},
	}
	shardSrv, err := wire.Serve("127.0.0.1:0", wire.HandlerFunc(func(c *wire.ServerConn, m *wire.Message) {
		_ = c.Reply(m, &want)
	}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shardSrv.Close() })
	router := serveRouter(t, wire.ShardMap{Version: 1, Shards: []wire.ShardInfo{{ID: "s1", Addr: shardSrv.Addr()}}})
	cli, err := wire.Dial(router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var got wire.ResolveResponse
	err = cli.Call(ctx, wire.TypeResolve, &wire.ResolveRequest{Path: "/user[@id='u']/address-book", Pattern: wire.PatternChaining}, &got)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("through the router: %+v, %v\nwant %+v", got, err, want)
	}
}
