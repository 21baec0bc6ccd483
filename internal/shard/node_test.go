package shard_test

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gupster/internal/core"
	"gupster/internal/coverage"
	"gupster/internal/dirclient"
	"gupster/internal/dirclient/ring"
	"gupster/internal/eventlog"
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

// Every install is an event naming the shard, the map's coordinates and
// the install mode.
func TestMapInstalledEvent(t *testing.T) {
	events := eventlog.Install(slog.LevelInfo)
	defer events.Remove()
	a, b := startShard(t, "a"), startShard(t, "b")
	installMap(t, mapFor(1, a, b), "", a, b)
	next := mapFor(2, a, b)
	next.Epoch = 3
	installMap(t, next, "handoff", a)
	if _, ok := events.Await(0, time.Now().Add(2*time.Second), eventlog.Is("map installed", "shard", "a", "version", "2", "epoch", "3", "mode", "handoff")); !ok {
		t.Fatal("no map installed event for shard a at version 2, epoch 3, mode handoff")
	}
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
	// Same-version reinstall is allowed (a rebalance's handoff and fence
	// install one map twice).
	if _, err := a.node.Install(&wire.ShardInstallRequest{Map: mapFor(3, a)}); err != nil {
		t.Fatalf("same-version reinstall refused: %v", err)
	}
}

// The satellite property: a live rebalance never opens a window where a
// moved owner fails to resolve. Resolves run continuously before, during
// and after Rebalance(); every one must succeed.
func TestRebalanceNoResolveGap(t *testing.T) {
	events := eventlog.Install(slog.LevelInfo)
	defer events.Remove()
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
	// must ride the handoff and the fence's redirects.
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
	if err := shard.Rebalance(ctx, v1, v2, shard.RebalanceOptions{}); err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	// The client learns v2 from a source's redirect: the fence is visible
	// from the client side as one event naming the shard that taught it.
	_, adopted := events.Await(0, time.Now().Add(5*time.Second), func(ev eventlog.Event) bool {
		from := ev.Attrs["from"].String()
		return eventlog.Is("map adopted", "version", "2")(ev) && (from == a.addr() || from == b.addr())
	})
	close(stop)
	<-done
	if !adopted {
		t.Fatal("the client never logged adopting v2 from a fenced source")
	}

	if got := failures.Load(); got != 0 {
		t.Fatalf("%d of %d resolves for moved owners failed across the rebalance", got, attempts.Load())
	}
	if attempts.Load() == 0 {
		t.Fatal("resolver made no attempts")
	}

	// The fence completed before Rebalance returned: sources dropped the
	// moved slice and redirect.
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
			t.Fatalf("post-fence resolve for %s at old home %s: got %v, want a wrong-shard redirect", owner, src.ID, err)
		}
		if ws.ShardID != "c" {
			t.Fatalf("post-fence redirect for %s points at %s, want c", owner, ws.ShardID)
		}
	}
	for _, s := range []*testShard{a, b} {
		for _, reg := range s.mdm.CoverageSnapshot() {
			for _, owner := range moved {
				if strings.Contains(reg.Path, "'"+owner+"'") {
					t.Fatalf("shard %s still holds moved owner %s after the fence: %s", s.id, owner, reg.Path)
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

// handoffRig is shards a and b on v1 and c joining on v2, with one owner
// v2 moves from its source to c.
type handoffRig struct {
	a, b, c *testShard
	src     *testShard
	v1, v2  wire.ShardMap
	owner   string
}

func startHandoffRig(t *testing.T) *handoffRig {
	t.Helper()
	r := &handoffRig{a: startShard(t, "a"), b: startShard(t, "b"), c: startShard(t, "c")}
	r.v1, r.v2 = mapFor(1, r.a, r.b), mapFor(2, r.a, r.b, r.c)
	installMap(t, r.v1, "", r.a, r.b)
	oldRing, _ := ring.Build(r.v1)
	newRing, _ := ring.Build(r.v2)
	for i := 0; r.owner == ""; i++ {
		cand := fmt.Sprintf("user-%d", i)
		if oldRing.Owner(cand).ID != newRing.Owner(cand).ID {
			r.owner = cand
		}
	}
	r.src = map[string]*testShard{"a": r.a, "b": r.b}[oldRing.Owner(r.owner).ID]
	return r
}

func (r *handoffRig) presence() string { return fmt.Sprintf("/user[@id='%s']/presence", r.owner) }

// call sends one directory call for the rig's owner through cli.
func (r *handoffRig) call(cli *dirclient.Directory, typ string, req any) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return cli.Call(ctx, r.owner, typ, req, nil)
}

// writeDuringRebalance seeds the owner at its source on v1, opens the
// handoff on the sources, and sends write through a client on v1 while
// shard.Rebalance(v1, v2) runs. A write the source answers at once is
// answered before the copy starts; one it holds rides the copy and the
// fence. It returns the write's answer.
func (r *handoffRig) writeDuringRebalance(t *testing.T, seed func(cli *dirclient.Directory), typ string, write any) error {
	t.Helper()
	cli, err := dialMap(r.v1)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	seed(cli)
	installMap(t, r.v2, "", r.c)
	installMap(t, r.v2, "handoff", r.a, r.b)

	answered := make(chan error, 1)
	go func() { answered <- r.call(cli, typ, write) }()
	var werr error
	held := true
	select {
	case werr = <-answered:
		held = false
	case <-time.After(200 * time.Millisecond):
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := shard.Rebalance(ctx, r.v1, r.v2, shard.RebalanceOptions{}); err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	if held {
		werr = <-answered
	}
	return werr
}

func (r *handoffRig) register(cli *dirclient.Directory, addr string) error {
	return r.call(cli, wire.TypeRegister, &wire.RegisterRequest{Store: "store-" + r.owner, Address: addr, Path: r.presence()})
}

func (r *handoffRig) putRule(cli *dirclient.Directory, effect string) error {
	return r.call(cli, wire.TypePutRule, &wire.PutRuleRequest{Owner: r.owner, Rule: wire.RulePayload{ID: "r1", Path: r.presence(), Effect: effect}})
}

// rule returns the owner's rule r1 as shard s holds it.
func (r *handoffRig) rule(s *testShard) (wire.RulePayload, bool) {
	for _, pr := range s.mdm.ShieldSnapshot() {
		if pr.Owner == r.owner && pr.Rule.ID == "r1" {
			return pr.Rule, true
		}
	}
	return wire.RulePayload{}, false
}

// A rule replaced permit → deny inside the handoff window stays deny at
// the new home: the copy of the source's older permit must not land on
// top of it, or the shield discloses what its owner just withdrew.
func TestHandoffRuleReplacedStaysReplaced(t *testing.T) {
	r := startHandoffRig(t)
	err := r.writeDuringRebalance(t, func(cli *dirclient.Directory) {
		if err := r.register(cli, "127.0.0.1:19999"); err != nil {
			t.Fatal(err)
		}
		if err := r.putRule(cli, "permit"); err != nil {
			t.Fatal(err)
		}
	}, wire.TypePutRule, &wire.PutRuleRequest{Owner: r.owner, Rule: wire.RulePayload{ID: "r1", Path: r.presence(), Effect: "deny"}})
	if err != nil {
		t.Fatalf("put-rule deny during the handoff: %v", err)
	}
	if rule, ok := r.rule(r.c); !ok || rule.Effect != "deny" {
		t.Fatalf("the new home holds rule r1 as %+v (present %v), want deny", rule, ok)
	}
}

// A store that re-registers at a new address inside the handoff window
// keeps the new address at the new home.
func TestHandoffReregistrationKeepsNewAddress(t *testing.T) {
	r := startHandoffRig(t)
	const moved = "127.0.0.1:29999"
	err := r.writeDuringRebalance(t, func(cli *dirclient.Directory) {
		if err := r.register(cli, "127.0.0.1:19999"); err != nil {
			t.Fatal(err)
		}
	}, wire.TypeRegister, &wire.RegisterRequest{Store: "store-" + r.owner, Address: moved, Path: r.presence()})
	if err != nil {
		t.Fatalf("re-register during the handoff: %v", err)
	}
	if got := r.c.mdm.AddrOf(coverage.StoreID("store-" + r.owner)); got != moved {
		t.Fatalf("the new home dials store-%s at %q, want %q", r.owner, got, moved)
	}
}

// A rule deleted inside the handoff window is deleted at the new home,
// and the delete succeeds: it must not arrive before the shield it
// deletes from.
func TestHandoffDeleteRuleLands(t *testing.T) {
	r := startHandoffRig(t)
	err := r.writeDuringRebalance(t, func(cli *dirclient.Directory) {
		if err := r.register(cli, "127.0.0.1:19999"); err != nil {
			t.Fatal(err)
		}
		if err := r.putRule(cli, "permit"); err != nil {
			t.Fatal(err)
		}
	}, wire.TypeDeleteRule, &wire.DeleteRuleRequest{Owner: r.owner, RuleID: "r1"})
	if err != nil {
		t.Fatalf("delete-rule during the handoff: %v", err)
	}
	if rule, ok := r.rule(r.c); ok {
		t.Fatalf("the new home still holds deleted rule r1: %+v", rule)
	}
}

// Inside the handoff window a moved owner's write waits for the fence and
// then lands on the new home, never on the source; a subscribe is served
// by the source, whose replica is complete until the fence.
func TestHandoffForwardsMutations(t *testing.T) {
	r := startHandoffRig(t)
	cli, err := dialMap(r.v1)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	installMap(t, r.v2, "", r.c)
	installMap(t, r.v2, "handoff", r.a, r.b)

	registered := make(chan error, 1)
	go func() { registered <- r.register(cli, "127.0.0.1:19999") }()

	conn, err := wire.Dial(r.src.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	err = conn.Call(ctx, wire.TypeSubscribe, &wire.SubscribeRequest{
		Path:    r.presence(),
		Context: policy.Context{Requester: r.owner},
	}, nil)
	if err != nil {
		t.Fatalf("subscribe at the source during the handoff: %v", err)
	}

	select {
	case err := <-registered:
		t.Fatalf("a moved owner's register was answered inside the handoff window: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	installMap(t, r.v2, "fence", r.a, r.b)
	if err := <-registered; err != nil {
		t.Fatalf("register held through the fence: %v", err)
	}
	if got := r.c.mdm.AddrOf(coverage.StoreID("store-" + r.owner)); got != "127.0.0.1:19999" {
		t.Fatalf("the held register never reached shard c (address %q)", got)
	}
	if n := len(r.src.mdm.CoverageSnapshot()); n != 0 {
		t.Fatalf("the source holds %d registrations after the fence", n)
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
