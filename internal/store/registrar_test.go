package store_test

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"gupster/internal/core"
	"gupster/internal/dirclient/ring"
	"gupster/internal/schema"
	"gupster/internal/shard"
	"gupster/internal/store"
	"gupster/internal/token"
	"gupster/internal/wire"
)

func newLeasedMDM(t *testing.T, ttl, grace time.Duration) (*core.MDM, *core.Server) {
	t.Helper()
	m := core.New(core.Config{
		Schema:     schema.GUP(),
		Signer:     token.NewSigner([]byte("registrar-test-key")),
		GrantTTL:   time.Minute,
		LeaseTTL:   ttl,
		LeaseGrace: grace,
	})
	srv := core.NewServer(m)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close(); srv.Close() })
	return m, srv
}

// The registrar registers coverage, keeps the lease renewed with
// heartbeats, and deregisters cleanly.
func TestRegistrarHeartbeatsKeepLeaseAlive(t *testing.T) {
	const ttl, grace = 60 * time.Millisecond, 30 * time.Millisecond
	m, srv := newLeasedMDM(t, ttl, grace)

	r := store.NewRegistrar(store.RegistrarConfig{
		Store:    "s1",
		Addr:     "127.0.0.1:7101",
		MDM:      srv.Addr(),
		Coverage: []string{"/user[@id='u']/presence", "/user[@id='u']/calendar"},
		Interval: 20 * time.Millisecond,
	})
	if err := r.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer r.Close()

	if got := m.Registry.StoreCount("s1"); got != 2 {
		t.Fatalf("registrations = %d, want 2", got)
	}
	// Outlive several lease periods: heartbeats must keep the store out of
	// quarantine the whole time.
	time.Sleep(4 * (ttl + grace))
	for _, l := range m.LeaseTable() {
		if l.Quarantined {
			t.Fatalf("store quarantined despite heartbeats: %+v", l)
		}
	}
	if r.Heartbeats.Load() == 0 {
		t.Fatal("no heartbeats sent")
	}

	if err := r.Deregister(context.Background()); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	if got := m.Registry.StoreCount("s1"); got != 0 {
		t.Fatalf("registrations after Deregister = %d", got)
	}
}

// When the MDM restarts without its journal (empty directory), the next
// heartbeat comes back Known=false and the registrar replays the whole
// coverage — the store heals a forgetful directory automatically.
func TestRegistrarReregistersAfterMDMAmnesia(t *testing.T) {
	m1, srv1 := newLeasedMDM(t, 60*time.Millisecond, 30*time.Millisecond)
	addr := srv1.Addr()

	r := store.NewRegistrar(store.RegistrarConfig{
		Store:    "s1",
		Addr:     "127.0.0.1:7101",
		MDM:      addr,
		Coverage: []string{"/user[@id='u']/presence"},
		Interval: 20 * time.Millisecond,
		Logf:     t.Logf,
	})
	if err := r.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer r.Close()
	if m1.Registry.StoreCount("s1") != 1 {
		t.Fatal("initial registration missing")
	}

	// "Restart" the MDM empty on the same address.
	m1.Close()
	srv1.Close()
	m2 := core.New(core.Config{
		Schema:   schema.GUP(),
		Signer:   token.NewSigner([]byte("registrar-test-key")),
		LeaseTTL: 60 * time.Millisecond,
	})
	srv2 := core.NewServer(m2)
	var err error
	for i := 0; i < 50; i++ {
		if err = srv2.Start(addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond) // the old listener may linger
	}
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	t.Cleanup(func() { m2.Close(); srv2.Close() })

	// The registrar counts a re-registration after the MDM has it, so the
	// counter is the later of the two events: wait on it.
	deadline := time.Now().Add(3 * time.Second)
	for r.Reregistrations.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("registrar never re-registered (heartbeats=%d, registered at the MDM: %d)",
				r.Heartbeats.Load(), m2.Registry.StoreCount("s1"))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if m2.Registry.StoreCount("s1") == 0 {
		t.Error("re-registration counted but the MDM holds no coverage for s1")
	}
}

// startLeasedShard runs a lease-keeping MDM behind shard routing on a
// loopback listener.
func startLeasedShard(t *testing.T, id string, ttl, grace time.Duration) (*core.MDM, *wire.Server, *shard.Node) {
	t.Helper()
	m := core.New(core.Config{
		Schema:     schema.GUP(),
		Signer:     token.NewSigner([]byte("registrar-test-key")),
		LeaseTTL:   ttl,
		LeaseGrace: grace,
	})
	srv := core.NewServer(m)
	node := shard.NewNode(shard.NodeConfig{ShardID: id, MDM: m, Inner: wire.HandlerFunc(srv.Handle)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := wire.ServeListener(ln, node)
	t.Cleanup(func() { ws.Close(); node.Close(); m.Close() })
	return m, ws, node
}

// ownerHomedOn finds an owner ID the ring homes on the named shard.
func ownerHomedOn(t *testing.T, r *ring.Ring, shardID string) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		if o := fmt.Sprintf("u-%d", i); r.Owner(o).ID == shardID {
			return o
		}
	}
	t.Fatalf("no owner homed on %s", shardID)
	return ""
}

// A store whose coverage spans shards holds a lease on each of them, and
// must renew each: a heartbeat names no owner, so one beat reaches one
// shard and every other would quarantine the store after TTL+grace.
func TestRegistrarRenewsLeaseOnEveryHomeShard(t *testing.T) {
	const ttl, grace = 60 * time.Millisecond, 30 * time.Millisecond
	mA, wsA, nodeA := startLeasedShard(t, "sa", ttl, grace)
	mB, wsB, nodeB := startLeasedShard(t, "sb", ttl, grace)
	v1 := wire.ShardMap{Version: 1, Shards: []wire.ShardInfo{
		{ID: "sa", Addr: wsA.Addr()}, {ID: "sb", Addr: wsB.Addr()},
	}}
	rg, err := ring.Build(v1)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*shard.Node{nodeA, nodeB} {
		if _, err := n.Install(&wire.ShardInstallRequest{Map: v1}); err != nil {
			t.Fatal(err)
		}
	}

	r := store.NewRegistrar(store.RegistrarConfig{
		Store: "st",
		Addr:  "127.0.0.1:7101",
		MDM:   wsA.Addr(),
		Coverage: []string{
			fmt.Sprintf("/user[@id='%s']/presence", ownerHomedOn(t, rg, "sa")),
			fmt.Sprintf("/user[@id='%s']/presence", ownerHomedOn(t, rg, "sb")),
		},
		Interval: 20 * time.Millisecond,
		Logf:     t.Logf,
	})
	if err := r.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer r.Close()

	time.Sleep(4 * (ttl + grace))
	for id, m := range map[string]*core.MDM{"sa": mA, "sb": mB} {
		leases := m.LeaseTable()
		if len(leases) != 1 {
			t.Fatalf("shard %s holds %d leases, want the store's one", id, len(leases))
		}
		if leases[0].Quarantined {
			t.Errorf("shard %s quarantined the store despite heartbeats: %+v", id, leases[0])
		}
	}
}

// When the registrar's home shard dies and a repair re-maps the keyspace,
// the registrar must find the surviving constellation on its own: it
// learns every shard address from the directory's map while healthy, and
// rotates through those seeds when its current target stops dialing — a
// store configured with a single -mdm address survives that address's
// death.
func TestRegistrarRotatesToLearnedSeedsWhenHomeShardDies(t *testing.T) {
	_, wsA, nodeA := startLeasedShard(t, "sa", time.Minute, 0)
	mB, wsB, nodeB := startLeasedShard(t, "sb", time.Minute, 0)

	v1 := wire.ShardMap{Version: 1, Shards: []wire.ShardInfo{
		{ID: "sa", Addr: wsA.Addr()}, {ID: "sb", Addr: wsB.Addr()},
	}}
	ring, err := ring.Build(v1)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*shard.Node{nodeA, nodeB} {
		if _, err := n.Install(&wire.ShardInstallRequest{Map: v1}); err != nil {
			t.Fatal(err)
		}
	}
	// Pick an owner homed on sa so the registrar's traffic stays on its
	// configured seed until that shard dies.
	owner := ownerHomedOn(t, ring, "sa")

	r := store.NewRegistrar(store.RegistrarConfig{
		Store:    "st",
		Addr:     "127.0.0.1:7101",
		MDM:      wsA.Addr(),
		Coverage: []string{fmt.Sprintf("/user[@id='%s']/presence", owner)},
		Interval: 25 * time.Millisecond,
		Logf:     t.Logf,
	})
	if err := r.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer r.Close()

	// Kill sa and repair the keyspace onto sb alone — the self-healing
	// planner's promotion, reduced to its map effect.
	wsA.Close()
	nodeA.Close()
	v2 := wire.ShardMap{Version: 2, Epoch: 1, Shards: []wire.ShardInfo{{ID: "sb", Addr: wsB.Addr()}}}
	if _, err := nodeB.Install(&wire.ShardInstallRequest{Map: v2}); err != nil {
		t.Fatal(err)
	}

	// The registrar's next beats dial the dead seed, rotate to sb, get
	// Known=false there, and replay the coverage — all without help.
	deadline := time.Now().Add(3 * time.Second)
	for mB.Registry.StoreCount("st") == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("registrar never re-homed to the surviving shard (heartbeats=%d, reregs=%d)",
				r.Heartbeats.Load(), r.Reregistrations.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
