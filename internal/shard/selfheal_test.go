package shard_test

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"gupster/internal/dirclient"
	"gupster/internal/dirclient/ring"
	"gupster/internal/policy"
	"gupster/internal/shard"
	"gupster/internal/token"
	"gupster/internal/wire"
)

// deadAddr reserves a loopback address and immediately releases it, so
// dials to it are refused.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func serveRouter(t *testing.T, m wire.ShardMap) *wire.Server {
	t.Helper()
	r, err := shard.NewRouter(m, shard.RouterConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := wire.ServeListener(ln, r)
	t.Cleanup(func() {
		ws.Close()
		r.Close()
	})
	return ws
}

// When every shard in the map refuses connections the router must answer
// with the typed no-shard verdict — naming the map coordinates — instead
// of burning the caller's deadline on one doomed dial per request.
func TestRouterNoShardAvailable(t *testing.T) {
	m := wire.ShardMap{Version: 7, Epoch: 2, Shards: []wire.ShardInfo{
		{ID: "a", Addr: deadAddr(t)},
		{ID: "b", Addr: deadAddr(t)},
	}}
	ws := serveRouter(t, m)

	conn, err := wire.Dial(ws.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	var resp wire.ResolveResponse
	err = conn.Call(ctx, wire.TypeResolve, &wire.ResolveRequest{
		Path:    "/user[@id='user-0']/presence",
		Context: policy.Context{Requester: "user-0"},
		Verb:    token.VerbFetch,
	}, &resp)
	if err == nil {
		t.Fatal("resolve against an all-dead map succeeded")
	}
	var re *wire.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("got %v, want a remote error carrying the no-shard verdict", err)
	}
	if !strings.Contains(err.Error(), "no shard available (map v7@e2)") {
		t.Fatalf("no-shard verdict does not name the map coordinates: %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("no-shard verdict took %v — the router kept the caller waiting", d)
	}
}

// When only the owner's shard is down, the router fails over to another
// map member, which can still answer — here with a wrong-shard redirect
// that proves a live shard handled the frame.
func TestRouterFailsOverToLiveShard(t *testing.T) {
	b := startShard(t, "b")
	m := wire.ShardMap{Version: 1, Shards: []wire.ShardInfo{
		{ID: "x", Addr: deadAddr(t)},
		{ID: "b", Addr: b.addr()},
	}}
	installMap(t, m, "", b)
	ws := serveRouter(t, m)

	ring, err := ring.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	owner := ""
	for i := 0; i < 10000; i++ {
		cand := "user-" + string(rune('0'+i%10)) + string(rune('a'+i/10%26))
		if ring.Owner(cand).ID == "x" {
			owner = cand
			break
		}
	}
	if owner == "" {
		t.Fatal("no owner homed on the dead shard in the sample")
	}

	conn, err := wire.Dial(ws.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	err = registerOwner(t, conn, owner)
	var wse *wire.WrongShardError
	if !errors.As(err, &wse) {
		t.Fatalf("got %v, want a wrong-shard redirect relayed from the failover shard", err)
	}
	if wse.ShardID != "x" {
		t.Fatalf("failover redirect names shard %q, want x", wse.ShardID)
	}
}

// Bootstrap must rotate past a dead first seed instead of giving up.
func TestDialSkipsDeadSeed(t *testing.T) {
	solo := startShard(t, "solo")
	cli, err := dirclient.Dial(deadAddr(t), solo.addr())
	if err != nil {
		t.Fatalf("bootstrap with a dead first seed: %v", err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	conn, err := wire.Dial(solo.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := registerOwner(t, conn, "user-1"); err != nil {
		t.Fatal(err)
	}
	if err := resolveOwnerVia(ctx, cli, "user-1"); err != nil {
		t.Fatalf("resolve through seed-rotated client: %v", err)
	}
}

// After a shard dies and a repair installs a higher-epoch map on the
// survivors, a client still holding the old map must refresh from the
// ring on transport failure and retry at the owner's new home.
func TestClientRebootstrapAfterShardDeath(t *testing.T) {
	a, b := startShard(t, "a"), startShard(t, "b")
	v1 := mapFor(1, a, b)
	installMap(t, v1, "", a, b)

	byHome := ownersBy(t, v1, 64)
	if len(byHome["b"]) == 0 {
		t.Fatal("owner sample has no b-homed owner")
	}
	ownerB := byHome["b"][0]

	cli, err := dialMap(v1)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Shard b dies; a repair would install a fenced successor map on the
	// survivor. Close is idempotent, so the t.Cleanup re-close is fine.
	b.ws.Close()
	v2 := mapFor(2, a)
	v2.Epoch = 1
	installMap(t, v2, "fence", a)

	connA, err := wire.Dial(a.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer connA.Close()
	if err := registerOwner(t, connA, ownerB); err != nil {
		t.Fatalf("re-register at survivor: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := resolveOwnerVia(ctx, cli, ownerB); err != nil {
		t.Fatalf("resolve for the dead shard's owner after repair: %v", err)
	}
	if got := cli.Map(); got.Epoch != 1 || got.Version != 2 {
		t.Fatalf("client holds map v%d@e%d after rebootstrap, want v2@e1", got.Version, got.Epoch)
	}
}
