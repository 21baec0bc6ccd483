package shard_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gupster/internal/core"
	"gupster/internal/dirclient"
	"gupster/internal/dirclient/ring"
	"gupster/internal/policy"
	"gupster/internal/schema"
	"gupster/internal/shard"
	"gupster/internal/token"
	"gupster/internal/wire"
)

var testKey = []byte("shard-integration-test-key")

type testShard struct {
	id   string
	mdm  *core.MDM
	node *shard.Node
	ws   *wire.Server
}

func (s *testShard) addr() string { return s.ws.Addr() }

// startShard runs a full MDM behind shard routing on a loopback listener.
func startShard(t *testing.T, id string) *testShard {
	t.Helper()
	m := core.New(core.Config{Signer: token.NewSigner(testKey), Schema: schema.GUP()})
	srv := core.NewServer(m)
	node := shard.NewNode(shard.NodeConfig{
		ShardID: id, MDM: m, Inner: wire.HandlerFunc(srv.Handle),
		Logf: t.Logf,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := wire.ServeListener(ln, node)
	t.Cleanup(func() {
		ws.Close()
		node.Close()
		m.Close()
	})
	return &testShard{id: id, mdm: m, node: node, ws: ws}
}

func installMap(t *testing.T, m wire.ShardMap, mode string, shards ...*testShard) {
	t.Helper()
	for _, s := range shards {
		if _, err := s.node.Install(&wire.ShardInstallRequest{Map: m, Mode: mode}); err != nil {
			t.Fatalf("install v%d on %s: %v", m.Version, s.id, err)
		}
	}
}

func mapFor(version uint64, shards ...*testShard) wire.ShardMap {
	m := wire.ShardMap{Version: version}
	for _, s := range shards {
		m.Shards = append(m.Shards, wire.ShardInfo{ID: s.id, Addr: s.addr()})
	}
	return m
}

// ownersBy buckets generated owner IDs by their home shard under a map.
func ownersBy(t *testing.T, m wire.ShardMap, n int) map[string][]string {
	t.Helper()
	r, err := ring.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]string)
	for i := 0; i < n; i++ {
		owner := fmt.Sprintf("user-%d", i)
		home := r.Owner(owner).ID
		out[home] = append(out[home], owner)
	}
	return out
}

func registerOwner(t *testing.T, conn *wire.Client, owner string) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	return conn.Call(ctx, wire.TypeRegister, &wire.RegisterRequest{
		Store:   "store-" + owner,
		Address: "127.0.0.1:19999",
		Path:    fmt.Sprintf("/user[@id='%s']/presence", owner),
	}, nil)
}

// dialMap returns a directory handle that already holds map m.
func dialMap(m wire.ShardMap) (*dirclient.Directory, error) {
	d := dirclient.New()
	return d, d.Adopt(m)
}

func resolveOwnerVia(ctx context.Context, cli *dirclient.Directory, owner string) error {
	var resp wire.ResolveResponse
	err := cli.Call(ctx, owner, wire.TypeResolve, &wire.ResolveRequest{
		Path:    fmt.Sprintf("/user[@id='%s']/presence", owner),
		Context: policy.Context{Requester: owner},
		Verb:    token.VerbFetch,
	}, &resp)
	if err != nil {
		return err
	}
	if len(resp.Alternatives) == 0 {
		return fmt.Errorf("resolve for %s returned no alternatives", owner)
	}
	return nil
}

// A two-shard constellation must serve each owner at its home shard and
// answer the rest with wrong-shard redirects carrying the full map; the
// shard-aware client must route around both without the caller noticing.
func TestNodeRoutesAndRedirects(t *testing.T) {
	a, b := startShard(t, "a"), startShard(t, "b")
	m := mapFor(1, a, b)
	installMap(t, m, "", a, b)

	byHome := ownersBy(t, m, 64)
	if len(byHome["a"]) == 0 || len(byHome["b"]) == 0 {
		t.Fatalf("owner sample did not hit both shards: %v", map[string]int{"a": len(byHome["a"]), "b": len(byHome["b"])})
	}
	ownerA, ownerB := byHome["a"][0], byHome["b"][0]

	connA, err := wire.Dial(a.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer connA.Close()

	// Registration for shard a's owner lands when sent to a...
	if err := registerOwner(t, connA, ownerA); err != nil {
		t.Fatalf("register %s at home shard: %v", ownerA, err)
	}
	// ...and bounces with a redirect when sent for shard b's owner.
	err = registerOwner(t, connA, ownerB)
	var ws *wire.WrongShardError
	if !errors.As(err, &ws) {
		t.Fatalf("register for %s at shard a: got %v, want a wrong-shard redirect", ownerB, err)
	}
	if ws.ShardID != "b" || ws.Addr != b.addr() {
		t.Fatalf("redirect points at %s/%s, want b/%s", ws.ShardID, ws.Addr, b.addr())
	}
	if ws.Map == nil || ws.Map.Version != 1 {
		t.Fatalf("redirect carries map %+v, want the full v1 map", ws.Map)
	}
	if ws.Owner != ownerB {
		t.Fatalf("redirect names owner %q, want %q", ws.Owner, ownerB)
	}

	// Old clients that only look at the error string still get a hint.
	var re *wire.RemoteError
	if errors.As(err, &re) {
		t.Fatalf("redirect decoded as a plain remote error: %v", err)
	}
	if !strings.Contains(err.Error(), "b") {
		t.Fatalf("redirect error text %q names no shard", err.Error())
	}

	connB, err := wire.Dial(b.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer connB.Close()
	if err := registerOwner(t, connB, ownerB); err != nil {
		t.Fatalf("register %s at shard b: %v", ownerB, err)
	}

	// The shard-aware client reaches both owners regardless of seed.
	cli, err := dialMap(m)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, owner := range []string{ownerA, ownerB} {
		if err := resolveOwnerVia(ctx, cli, owner); err != nil {
			t.Fatalf("sharded resolve for %s: %v", owner, err)
		}
	}

	// A stale-map client chases the redirect: point everything at shard a.
	stale, err := dialMap(wire.ShardMap{Version: 1, Shards: []wire.ShardInfo{{ID: "a", Addr: a.addr()}}})
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	if err := resolveOwnerVia(ctx, stale, ownerB); err != nil {
		t.Fatalf("stale client did not chase the redirect for %s: %v", ownerB, err)
	}
}

// A node with no installed map is an unsharded directory: everything is
// served locally, nothing redirects.
func TestNodeWithoutMapServesEverything(t *testing.T) {
	a := startShard(t, "solo")
	conn, err := wire.Dial(a.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 8; i++ {
		if err := registerOwner(t, conn, fmt.Sprintf("user-%d", i)); err != nil {
			t.Fatalf("register on mapless node: %v", err)
		}
	}
}

// Stale installs must be refused — a coordinator replaying an old map
// would otherwise rewind routing on one shard and split the namespace.
func TestNodeRefusesStaleMap(t *testing.T) {
	a := startShard(t, "a")
	installMap(t, mapFor(3, a), "", a)
	if _, err := a.node.Install(&wire.ShardInstallRequest{Map: mapFor(2, a)}); err == nil {
		t.Fatal("node accepted a map older than the one it holds")
	}
	// Same-version reinstall is allowed (handoff→drain chains reuse it).
	if _, err := a.node.Install(&wire.ShardInstallRequest{Map: mapFor(3, a)}); err != nil {
		t.Fatalf("same-version reinstall refused: %v", err)
	}
}

// The satellite property: a live rebalance never opens a window where a
// moved owner fails to resolve. Resolves run continuously before, during
// and after Rebalance(); every one must succeed.
func TestRebalanceNoResolveGap(t *testing.T) {
	a, b := startShard(t, "a"), startShard(t, "b")
	v1 := mapFor(1, a, b)
	installMap(t, v1, "", a, b)

	const ownerCount = 48
	byHome := ownersBy(t, v1, ownerCount)
	conns := map[string]*wire.Client{}
	for _, s := range []*testShard{a, b} {
		conn, err := wire.Dial(s.addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conns[s.id] = conn
		for _, owner := range byHome[s.id] {
			if err := registerOwner(t, conn, owner); err != nil {
				t.Fatalf("seed register %s at %s: %v", owner, s.id, err)
			}
		}
	}

	// Shard c joins; work out which owners v2 moves to it.
	c := startShard(t, "c")
	v2 := mapFor(2, a, b, c)
	oldRing, err := ring.Build(v1)
	if err != nil {
		t.Fatal(err)
	}
	newRing, err := ring.Build(v2)
	if err != nil {
		t.Fatal(err)
	}
	var moved []string
	for i := 0; i < ownerCount; i++ {
		owner := fmt.Sprintf("user-%d", i)
		if oldRing.Owner(owner).ID != newRing.Owner(owner).ID {
			if newRing.Owner(owner).ID != "c" {
				t.Fatalf("owner %s moved between surviving shards", owner)
			}
			moved = append(moved, owner)
		}
	}
	if len(moved) == 0 {
		t.Fatal("no owners move to the joining shard — widen the sample")
	}
	t.Logf("%d of %d owners move to shard c", len(moved), ownerCount)

	// Hammer the moved owners from a client that starts on the old map and
	// must ride redirects/forwards across the whole transition.
	cli, err := dialMap(v1)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var failures atomic.Int64
	var attempts atomic.Int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, owner := range moved {
				ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
				err := resolveOwnerVia(ctx, cli, owner)
				cancel()
				attempts.Add(1)
				if err != nil {
					failures.Add(1)
					t.Errorf("resolve for moved owner %s failed mid-rebalance: %v", owner, err)
				}
			}
		}
	}()

	time.Sleep(50 * time.Millisecond) // let the pre-rebalance baseline run
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := shard.Rebalance(ctx, v1, v2, shard.RebalanceOptions{ForwardMillis: 300, Logf: t.Logf}); err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	time.Sleep(900 * time.Millisecond) // ride through the drain flip
	close(stop)
	<-done

	if got := failures.Load(); got != 0 {
		t.Fatalf("%d of %d resolves for moved owners failed across the rebalance", got, attempts.Load())
	}
	if attempts.Load() == 0 {
		t.Fatal("resolver made no attempts")
	}

	// The drain completed: sources dropped the moved slice and redirect.
	for _, owner := range moved {
		src := oldRing.Owner(owner)
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		var resp wire.ResolveResponse
		err := conns[src.ID].Call(ctx, wire.TypeResolve, &wire.ResolveRequest{
			Path:    fmt.Sprintf("/user[@id='%s']/presence", owner),
			Context: policy.Context{Requester: owner},
			Verb:    token.VerbFetch,
		}, &resp)
		cancel()
		var ws *wire.WrongShardError
		if !errors.As(err, &ws) {
			t.Fatalf("post-drain resolve for %s at old home %s: got %v, want a wrong-shard redirect", owner, src.ID, err)
		}
		if ws.ShardID != "c" {
			t.Fatalf("post-drain redirect for %s points at %s, want c", owner, ws.ShardID)
		}
	}
	for _, s := range []*testShard{a, b} {
		for _, reg := range s.mdm.CoverageSnapshot() {
			for _, owner := range moved {
				if strings.Contains(reg.Path, "'"+owner+"'") {
					t.Fatalf("shard %s still holds moved owner %s after the drain: %s", s.id, owner, reg.Path)
				}
			}
		}
	}
	for _, owner := range moved {
		found := false
		for _, reg := range c.mdm.CoverageSnapshot() {
			if strings.Contains(reg.Path, "'"+owner+"'") {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("moved owner %s never arrived on shard c", owner)
		}
	}
}

// Mutations issued during the handoff window must land on the new owner,
// not evaporate with the source's dropped slice.
func TestHandoffForwardsMutations(t *testing.T) {
	a, b := startShard(t, "a"), startShard(t, "b")
	v1 := mapFor(1, a, b)
	installMap(t, v1, "", a, b)

	c := startShard(t, "c")
	v2 := mapFor(2, a, b, c)
	oldRing, _ := ring.Build(v1)
	newRing, _ := ring.Build(v2)
	var owner string
	for i := 0; ; i++ {
		cand := fmt.Sprintf("user-%d", i)
		if oldRing.Owner(cand).ID != newRing.Owner(cand).ID {
			owner = cand
			break
		}
		if i > 10000 {
			t.Fatal("no moving owner found")
		}
	}
	src := oldRing.Owner(owner).ID
	shards := map[string]*testShard{"a": a, "b": b}
	installMap(t, v2, "", c)
	installMap(t, v2, "handoff", a, b)

	// A registration sent to the source mid-handoff must reach shard c.
	conn, err := wire.Dial(shards[src].addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := registerOwner(t, conn, owner); err != nil {
		t.Fatalf("register during handoff: %v", err)
	}
	found := false
	for _, reg := range c.mdm.CoverageSnapshot() {
		if strings.Contains(reg.Path, "'"+owner+"'") {
			found = true
		}
	}
	if !found {
		t.Fatalf("registration for %s forwarded during handoff never reached shard c", owner)
	}
	if len(shards[src].mdm.CoverageSnapshot()) != 0 {
		t.Fatalf("forwarded registration also landed on the source")
	}

	// Subscriptions are never forwarded: the source redirects them even
	// mid-handoff so the notification stream is born on the owning shard.
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	err = conn.Call(ctx, wire.TypeSubscribe, &wire.SubscribeRequest{
		Path:    fmt.Sprintf("/user[@id='%s']/presence", owner),
		Context: policy.Context{Requester: owner},
	}, nil)
	var ws *wire.WrongShardError
	if !errors.As(err, &ws) || ws.ShardID != "c" {
		t.Fatalf("subscribe during handoff: got %v, want a redirect to shard c", err)
	}
}

// A batch naming owners homed on different shards must be answered: no
// single shard can serve it (each redirects on the first foreign owner), so
// the client sends one frame per home and merges the answers by position —
// whether it bootstrapped from a shard or from the data-less router.
func TestMixedOwnerBatchResolve(t *testing.T) {
	a, b := startShard(t, "a"), startShard(t, "b")
	m := mapFor(1, a, b)
	installMap(t, m, "", a, b)
	byHome := ownersBy(t, m, 64)
	owners := []string{byHome["a"][0], byHome["b"][0], byHome["a"][1]}

	seed, err := dialMap(m)
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	req := &wire.BatchResolveRequest{}
	for _, owner := range owners {
		path := fmt.Sprintf("/user[@id='%s']/presence", owner)
		err := seed.Call(context.Background(), owner, wire.TypeRegister,
			&wire.RegisterRequest{Store: "store-" + owner, Address: "127.0.0.1:19999", Path: path}, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Requests = append(req.Requests, wire.ResolveRequest{
			Path: path, Context: policy.Context{Requester: owner}, Verb: token.VerbFetch,
		})
	}

	for name, addr := range map[string]string{"via a shard": b.addr(), "via the router": serveRouter(t, m).Addr()} {
		t.Run(name, func(t *testing.T) {
			cli, err := core.DialMDM(addr, owners[0], "self")
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			resp, err := cli.BatchResolve(ctx, req)
			if err != nil {
				t.Fatalf("mixed-owner batch: %v", err)
			}
			for i, res := range resp.Results {
				if res.Error != "" || res.Response == nil || len(res.Response.Alternatives) == 0 {
					t.Fatalf("entry %d (%s): %+v", i, owners[i], res)
				}
				if got := res.Response.Alternatives[0].Referrals[0].Query.Store; got != "store-"+owners[i] {
					t.Errorf("entry %d answers for %s, want store-%s: merged out of position", i, got, owners[i])
				}
			}
		})
	}
}
