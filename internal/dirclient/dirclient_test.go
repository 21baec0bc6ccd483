package dirclient

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gupster/internal/dirclient/ring"
	"gupster/internal/wire"
)

// node is a fake directory member: it answers the handle's shard-map
// probe with mp (refusing it when nil, like an unsharded MDM) and every
// other call with reply, counting them.
type node struct {
	srv   *wire.Server
	calls atomic.Int64

	mu    sync.Mutex
	mp    *wire.ShardMap
	reply func(call int64, c *wire.ServerConn, m *wire.Message)
}

func (n *node) addr() string { return n.srv.Addr() }

func (n *node) set(mp *wire.ShardMap, reply func(call int64, c *wire.ServerConn, m *wire.Message)) {
	n.mu.Lock()
	n.mp, n.reply = mp, reply
	n.mu.Unlock()
}

func (n *node) ServeWire(c *wire.ServerConn, m *wire.Message) {
	n.mu.Lock()
	mp, reply := n.mp, n.reply
	n.mu.Unlock()
	if m.Type == wire.TypeShardMap {
		if mp == nil {
			_ = c.ReplyError(m, errors.New("unknown message type"))
		} else {
			_ = c.Reply(m, *mp)
		}
		return
	}
	call := n.calls.Add(1)
	if reply == nil {
		_ = c.Reply(m, wire.Empty{})
		return
	}
	reply(call, c, m)
}

func startNode(t testing.TB) *node {
	t.Helper()
	n := &node{}
	srv, err := wire.Serve("127.0.0.1:0", n)
	if err != nil {
		t.Fatal(err)
	}
	n.srv = srv
	t.Cleanup(func() { srv.Close() })
	return n
}

// deadAddr reserves a loopback address and releases it: dials are refused.
func deadAddr(t testing.TB) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

func ok(_ int64, c *wire.ServerConn, m *wire.Message) { _ = c.Reply(m, wire.Empty{}) }

func notLeader(addr func() string) func(int64, *wire.ServerConn, *wire.Message) {
	return func(_ int64, c *wire.ServerConn, m *wire.Message) {
		_ = c.ReplyError(m, &wire.NotLeaderError{LeaderAddr: addr(), Term: 1})
	}
}

func wrongShard(id string, addr func() string, mp *wire.ShardMap) func(int64, *wire.ServerConn, *wire.Message) {
	return func(_ int64, c *wire.ServerConn, m *wire.Message) {
		_ = c.ReplyError(m, &wire.WrongShardError{Owner: "o", ShardID: id, Addr: addr(), Map: mp})
	}
}

// first answers the first call one way and every later call another.
func first(a, then func(int64, *wire.ServerConn, *wire.Message)) func(int64, *wire.ServerConn, *wire.Message) {
	return func(call int64, c *wire.ServerConn, m *wire.Message) {
		if call == 1 {
			a(call, c, m)
		} else {
			then(call, c, m)
		}
	}
}

func mapOf(version, epoch uint64, nodes map[string]*node, ids ...string) wire.ShardMap {
	m := wire.ShardMap{Version: version, Epoch: epoch}
	for _, id := range ids {
		m.Shards = append(m.Shards, wire.ShardInfo{ID: id, Addr: nodes[id].addr()})
	}
	return m
}

// ownerOn finds an owner the map homes on shard id.
func ownerOn(t testing.TB, m wire.ShardMap, id string) string {
	t.Helper()
	r, err := ring.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4096; i++ {
		if o := fmt.Sprintf("u-%d", i); r.Owner(o).ID == id {
			return o
		}
	}
	t.Fatalf("no owner homed on %s", id)
	return ""
}

// TestRuleSet covers the whole rule matrix once, each row against fresh
// fake members a and b.
func TestRuleSet(t *testing.T) {
	type fleet struct {
		a, b  *node
		nodes map[string]*node
		dead  string
	}
	type result struct {
		err     error
		elapsed time.Duration
	}
	var notLeaderErr *wire.NotLeaderError
	var wrongShardErr *wire.WrongShardError
	var remoteErr *wire.RemoteError
	var overloadedErr *wire.OverloadedError

	rows := []struct {
		name string
		// build scripts the members and returns the handle plus the owner
		// to call for.
		build func(t *testing.T, f *fleet) (*Directory, string)
		// wantErr is nil for success, else a target for errors.As / Is.
		wantErr any
		// a, b are the calls each member must have served after one Call.
		a, b int64
		// after runs extra checks (and follow-up calls).
		after func(t *testing.T, f *fleet, d *Directory, owner string, r result)
	}{
		{
			name: "not-leader with address: followed, then remembered",
			build: func(t *testing.T, f *fleet) (*Directory, string) {
				f.a.set(nil, notLeader(f.b.addr))
				return New(f.a.addr()), ""
			},
			a: 1, b: 1,
			after: func(t *testing.T, f *fleet, d *Directory, owner string, _ result) {
				if err := d.Call(context.Background(), owner, "op", nil, nil); err != nil {
					t.Fatal(err)
				}
				if a, b := f.a.calls.Load(), f.b.calls.Load(); a != 1 || b != 2 {
					t.Fatalf("second call served a=%d b=%d, want it to start at the leader (a=1 b=2)", a, b)
				}
			},
		},
		{
			name: "not-leader without address: one settle, then asked again",
			build: func(t *testing.T, f *fleet) (*Directory, string) {
				f.a.set(nil, first(notLeader(func() string { return "" }), ok))
				return New(f.a.addr()), ""
			},
			a: 2,
			after: func(t *testing.T, _ *fleet, _ *Directory, _ string, r result) {
				if r.elapsed < settle {
					t.Fatalf("retried after %v, want at least the %v settle", r.elapsed, settle)
				}
			},
		},
		{
			name: "wrong-shard with newer map: adopted and followed",
			build: func(t *testing.T, f *fleet) (*Directory, string) {
				v2 := mapOf(2, 0, f.nodes, "a", "b")
				owner := ownerOn(t, v2, "b")
				f.a.set(nil, wrongShard("b", f.b.addr, &v2))
				d := New()
				if err := d.Adopt(mapOf(1, 0, f.nodes, "a")); err != nil {
					t.Fatal(err)
				}
				return d, owner
			},
			a: 1, b: 1,
			after: func(t *testing.T, f *fleet, d *Directory, owner string, _ result) {
				if m := d.Map(); m.Version != 2 {
					t.Fatalf("holds map v%d, want the redirect's v2", m.Version)
				}
				if err := d.Call(context.Background(), owner, "op", nil, nil); err != nil {
					t.Fatal(err)
				}
				if a := f.a.calls.Load(); a != 1 {
					t.Fatalf("second call went back to a (%d calls): the adopted map was not used", a)
				}
			},
		},
		{
			name: "wrong-shard with older map: replier is behind, not followed",
			build: func(t *testing.T, f *fleet) (*Directory, string) {
				v1 := mapOf(1, 0, f.nodes, "a")
				v2 := mapOf(2, 0, f.nodes, "a", "b")
				f.b.set(nil, first(wrongShard("a", f.a.addr, &v1), ok))
				d := New()
				if err := d.Adopt(v2); err != nil {
					t.Fatal(err)
				}
				return d, ownerOn(t, v2, "b")
			},
			a: 0, b: 2,
			after: func(t *testing.T, _ *fleet, d *Directory, _ string, _ result) {
				if m := d.Map(); m.Version != 2 {
					t.Fatalf("holds map v%d after an older redirect, want v2 kept", m.Version)
				}
			},
		},
		{
			name: "wrong-shard with no map: followed for this call only",
			build: func(t *testing.T, f *fleet) (*Directory, string) {
				f.a.set(nil, wrongShard("b", f.b.addr, nil))
				return New(f.a.addr()), "o"
			},
			a: 1, b: 1,
			after: func(t *testing.T, _ *fleet, d *Directory, _ string, _ result) {
				if d.Sharded() {
					t.Fatal("a redirect without a map made the handle sharded")
				}
			},
		},
		{
			name: "self-referential redirect hits the hop bound",
			build: func(t *testing.T, f *fleet) (*Directory, string) {
				f.a.set(nil, notLeader(f.a.addr))
				return New(f.a.addr()), ""
			},
			wantErr: &notLeaderErr,
			a:       maxHops + 1,
		},
		{
			name: "ping-pong redirects hit the hop bound",
			build: func(t *testing.T, f *fleet) (*Directory, string) {
				f.a.set(nil, wrongShard("b", f.b.addr, nil))
				f.b.set(nil, wrongShard("a", f.a.addr, nil))
				return New(f.a.addr()), "o"
			},
			wantErr: &wrongShardErr,
			a:       maxHops/2 + 1, b: (maxHops + 1) / 2,
		},
		{
			name: "dead seed at bootstrap is skipped",
			build: func(t *testing.T, f *fleet) (*Directory, string) {
				d, err := Dial(f.dead, f.a.addr())
				if err != nil {
					t.Fatalf("Dial with a dead first seed: %v", err)
				}
				return d, ""
			},
			a: 1,
		},
		{
			name: "dead home after bootstrap: rotates to the next seed and stays",
			build: func(t *testing.T, f *fleet) (*Directory, string) {
				d, err := Dial(f.a.addr(), f.b.addr())
				if err != nil {
					t.Fatal(err)
				}
				f.a.srv.Close()
				return d, ""
			},
			b: 1,
			after: func(t *testing.T, f *fleet, d *Directory, _ string, _ result) {
				if got := d.AddrFor(""); got != f.b.addr() {
					t.Fatalf("home is %s after the rotation, want b (%s)", got, f.b.addr())
				}
			},
		},
		{
			name: "dead shard after bootstrap: the survivor's newer map is learnt",
			build: func(t *testing.T, f *fleet) (*Directory, string) {
				v1 := mapOf(1, 0, f.nodes, "a", "b")
				v2 := mapOf(2, 1, f.nodes, "b")
				f.b.set(&v2, ok)
				d := New()
				if err := d.Adopt(v1); err != nil {
					t.Fatal(err)
				}
				f.a.srv.Close()
				return d, ownerOn(t, v1, "a")
			},
			b: 1,
			after: func(t *testing.T, _ *fleet, d *Directory, _ string, _ result) {
				if m := d.Map(); m.Epoch != 1 || m.Version != 2 {
					t.Fatalf("holds map v%d@e%d after the rotation, want the survivor's v2@e1", m.Version, m.Epoch)
				}
			},
		},
		{
			name: "every address dead",
			build: func(t *testing.T, f *fleet) (*Directory, string) {
				return New(f.dead, deadAddr(t)), ""
			},
			wantErr: ErrUnreachable,
		},
		{
			name: "RemoteError is an answer: not retried, conn kept",
			build: func(t *testing.T, f *fleet) (*Directory, string) {
				f.a.set(nil, func(_ int64, c *wire.ServerConn, m *wire.Message) {
					_ = c.ReplyError(m, errors.New("access denied"))
				})
				return New(f.a.addr(), f.b.addr()), ""
			},
			wantErr: &remoteErr,
			a:       1,
		},
		{
			name: "overload is an answer: conn kept",
			build: func(t *testing.T, f *fleet) (*Directory, string) {
				f.a.set(nil, func(_ int64, c *wire.ServerConn, m *wire.Message) {
					_ = c.ReplyError(m, &wire.OverloadedError{RetryAfter: time.Millisecond, Reason: "shed"})
				})
				return New(f.a.addr(), f.b.addr()), ""
			},
			wantErr: &overloadedErr,
			a:       1,
		},
		{
			// wire.Client's liveness rule, seen from here: the call is the
			// caller's loss alone — no rotation, b is not asked — but a link
			// that stayed silent for a whole deadline is not trusted again.
			name: "caller expiry in silence: no rotation, the link is given up",
			build: func(t *testing.T, f *fleet) (*Directory, string) {
				f.a.set(nil, func(int64, *wire.ServerConn, *wire.Message) {}) // never answers
				return New(f.a.addr(), f.b.addr()), ""
			},
			wantErr: context.DeadlineExceeded,
			a:       1,
			after: func(t *testing.T, f *fleet, d *Directory, owner string, _ result) {
				if conn := d.view.Load().conns[f.a.addr()]; conn != nil && conn.Alive() {
					t.Fatal("the silent link still counts as alive")
				}
				f.a.set(nil, ok)
				if err := d.Call(context.Background(), owner, "op", nil, nil); err != nil {
					t.Fatalf("call after the silent expiry: %v", err)
				}
			},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			f := &fleet{a: startNode(t), b: startNode(t), dead: deadAddr(t)}
			f.nodes = map[string]*node{"a": f.a, "b": f.b}
			d, owner := row.build(t, f)
			defer d.Close()

			// Warm the pool so "conn kept" has a connection to compare.
			before := d.view.Load().conns[f.a.addr()]

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			if row.wantErr == context.DeadlineExceeded {
				cancel()
				ctx, cancel = context.WithTimeout(context.Background(), 100*time.Millisecond)
			}
			defer cancel()
			start := time.Now()
			err := d.Call(ctx, owner, "op", wire.Empty{}, nil)
			r := result{err: err, elapsed: time.Since(start)}

			switch want := row.wantErr.(type) {
			case nil:
				if err != nil {
					t.Fatalf("Call: %v", err)
				}
			case error:
				if !errors.Is(err, want) {
					t.Fatalf("Call: got %v, want %v", err, want)
				}
			default:
				if !errors.As(err, want) {
					t.Fatalf("Call: got %v, want %T", err, want)
				}
			}
			if a, b := f.a.calls.Load(), f.b.calls.Load(); a != row.a || b != row.b {
				t.Fatalf("members served a=%d b=%d calls, want a=%d b=%d", a, b, row.a, row.b)
			}
			if row.wantErr != nil && row.wantErr != ErrUnreachable && row.wantErr != context.DeadlineExceeded && row.a > 0 {
				after := d.view.Load().conns[f.a.addr()]
				if after == nil || (before != nil && after != before) {
					t.Fatalf("pooled connection to a was dropped on %v", err)
				}
				// The kept connection is the live one: the very next call
				// rides it.
				f.a.set(nil, ok)
				if err := d.Call(context.Background(), owner, "op", nil, nil); err != nil {
					t.Fatalf("call after %T: %v", row.wantErr, err)
				}
				if d.view.Load().conns[f.a.addr()] != after {
					t.Fatal("connection to a was replaced after a typed reply")
				}
			}
			if row.after != nil {
				row.after(t, f, d, owner, r)
			}
		})
	}
}

// Dedicated runs the same rules on sockets the caller owns: the redirect
// is followed on a fresh socket, the abandoned one is closed, the pool is
// untouched.
func TestDedicatedFollowsRedirectOnOwnSocket(t *testing.T) {
	a, b := startNode(t), startNode(t)
	a.set(nil, notLeader(b.addr))
	d := New(a.addr())
	defer d.Close()
	conn, err := d.Dedicated(context.Background(), "", "op", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if got := b.calls.Load(); got != 1 {
		t.Fatalf("leader served %d calls, want the followed one", got)
	}
	if err := conn.Call(context.Background(), "op", nil, nil); err != nil {
		t.Fatalf("returned socket is not usable: %v", err)
	}
	if got := b.calls.Load(); got != 2 {
		t.Fatalf("leader served %d calls, want both the followed one and the one on the returned socket", got)
	}
	if n := len(d.view.Load().conns); n != 0 {
		t.Fatalf("dedicated call left %d connections in the pool", n)
	}
	if got := d.AddrFor(""); got != b.addr() {
		t.Fatalf("handle did not remember the leader: AddrFor = %s, want %s", got, b.addr())
	}
}

// The healthy path must cost exactly what the bare connection costs.
func TestCallAllocatesNothingExtra(t *testing.T) {
	a := startNode(t)
	d, err := Dial(a.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	conn, err := wire.Dial(a.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx := context.Background()
	var resp wire.Empty
	// AllocsPerRun counts the whole process — the fake member's goroutines,
	// and under -race the sync.Pool misses the detector injects — so the
	// cost of a call is the quietest single run of many.
	quietest := func(f func()) float64 {
		least := testing.AllocsPerRun(1, f)
		for i := 0; i < 200; i++ {
			least = min(least, testing.AllocsPerRun(1, f))
		}
		return least
	}
	via := quietest(func() { _ = d.Call(ctx, "", "op", wire.Empty{}, &resp) })
	bare := quietest(func() { _ = conn.Call(ctx, "op", wire.Empty{}, &resp) })
	if via != bare {
		t.Fatalf("Directory.Call allocates %.0f per call, wire.Client.Call %.0f", via, bare)
	}
}

// TestChaosConcurrentCallsAcrossAdoptionAndDrop hammers one handle from
// many goroutines while maps are adopted and pooled connections are
// dropped under them (run under -race by the CI chaos step). Members stay
// healthy, so a call may lose its connection mid-flight and must find
// another; nothing else may go wrong.
func TestChaosConcurrentCallsAcrossAdoptionAndDrop(t *testing.T) {
	nodes := map[string]*node{"a": startNode(t), "b": startNode(t), "c": startNode(t)}
	d, err := Dial(nodes["a"].addr(), nodes["b"].addr(), nodes["c"].addr())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	var lastVersion uint64
	go func() {
		defer churn.Done()
		orders := [][]string{{"a", "b", "c"}, {"c", "a"}, {"b", "c"}, {"a", "b"}}
		for v := uint64(1); ; v++ {
			select {
			case <-stop:
				lastVersion = v - 1
				return
			default:
			}
			if err := d.Adopt(mapOf(v, 0, nodes, orders[v%uint64(len(orders))]...)); err != nil {
				t.Errorf("Adopt v%d: %v", v, err)
			}
			for addr, conn := range d.view.Load().conns {
				if v%3 == 0 {
					d.drop(addr, conn)
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var calls sync.WaitGroup
	var done, unreachable atomic.Int64
	for g := 0; g < 8; g++ {
		calls.Add(1)
		go func(g int) {
			defer calls.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			for i := 0; i < 300; i++ {
				owner := ""
				if i%4 != 0 {
					owner = fmt.Sprintf("u-%d-%d", g, i)
				}
				switch err := d.Call(ctx, owner, "op", wire.Empty{}, nil); {
				case err == nil:
					done.Add(1)
				case errors.Is(err, ErrUnreachable):
					unreachable.Add(1) // every connection of this call was dropped under it
				default:
					t.Errorf("call %d/%d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	calls.Wait()
	close(stop)
	churn.Wait()

	if done.Load() == 0 {
		t.Fatal("no call succeeded")
	}
	t.Logf("%d calls answered, %d lost every connection mid-flight, maps up to v%d", done.Load(), unreachable.Load(), lastVersion)
	if err := d.Call(context.Background(), "u", "op", nil, nil); err != nil {
		t.Fatalf("call after the churn: %v", err)
	}
	if got := d.Map().Version; got != lastVersion {
		t.Fatalf("holds map v%d after the churn, want the last adopted v%d", got, lastVersion)
	}
}

// FuzzLocatorRedirect scripts two members with arbitrary redirect
// sequences — any target, any map including malformed ones — and checks
// the rule set's bounds: the call returns, no more than maxHops redirects
// are followed, and the held map never moves backwards.
func FuzzLocatorRedirect(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 1, 2, 1, 2, 1, 2})
	f.Add([]byte{0x13, 0x21, 0x0b, 0x32, 0xff, 0x00})
	f.Add([]byte{3, 3, 3, 3, 3, 3, 3, 3, 3})
	f.Add([]byte{0x4b, 0x9c, 0x23, 0xe3, 0x5a, 0x11})

	a, b := startNode(f), startNode(f)
	nodes := []*node{a, b}
	dead := deadAddr(f)

	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		// Every non-probe call, at whichever member, consumes one script
		// byte; an exhausted script answers ok.
		var pos atomic.Int64
		var served atomic.Int64
		step := func(self int) func(int64, *wire.ServerConn, *wire.Message) {
			return func(_ int64, c *wire.ServerConn, m *wire.Message) {
				served.Add(1)
				i := int(pos.Add(1)) - 1
				if i >= len(script) {
					_ = c.Reply(m, wire.Empty{})
					return
				}
				x := script[i]
				target := []string{"", nodes[self].addr(), nodes[1-self].addr(), dead}[x>>2&3]
				switch x & 3 {
				case 0:
					_ = c.Reply(m, wire.Empty{})
				case 1:
					_ = c.ReplyError(m, &wire.NotLeaderError{LeaderAddr: target, Term: uint64(x)})
				case 2:
					_ = c.ReplyError(m, &wire.WrongShardError{ShardID: "s", Addr: target})
				case 3:
					mp := wire.ShardMap{Version: uint64(x >> 4 & 3), Epoch: uint64(x >> 6)}
					switch x >> 4 & 3 {
					case 1:
						mp.Shards = []wire.ShardInfo{{ID: "a", Addr: a.addr()}, {ID: "b", Addr: b.addr()}}
					case 2:
						mp.Shards = []wire.ShardInfo{{ID: "a", Addr: a.addr()}, {ID: "a", Addr: b.addr()}} // duplicate ID
					case 3:
						mp.Shards = []wire.ShardInfo{{ID: "b", Addr: ""}} // no address
					}
					_ = c.ReplyError(m, &wire.WrongShardError{ShardID: "s", Addr: target, Map: &mp})
				}
			}
		}
		a.set(nil, step(0))
		b.set(nil, step(1))

		d := New(a.addr(), b.addr())
		defer d.Close()
		var held wire.ShardMap
		for call := 1; call <= 3; call++ {
			// A short budget keeps settle waits from dominating the run;
			// expiring inside one is itself a path worth covering. A frame
			// served after its caller gave up lands in the next call's
			// count, so the bound is checked cumulatively.
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			_ = d.Call(ctx, "owner", "op", wire.Empty{}, nil)
			cancel()
			if n := served.Load(); n > int64(call*(maxHops+1)) {
				t.Fatalf("%d calls were served %d times, more than the %d-hop bound allows", call, n, maxHops)
			}
			now := d.Map()
			if ring.Compare(now, held) < 0 {
				t.Fatalf("held map went backwards: v%d@e%d after v%d@e%d", now.Version, now.Epoch, held.Version, held.Epoch)
			}
			if _, err := ring.Build(now); now.Version != 0 && err != nil {
				t.Fatalf("adopted a map no ring can be built from: %v", err)
			}
			held = now
		}
	})
}
