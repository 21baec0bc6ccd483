package health

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"gupster/internal/core"
	"gupster/internal/coverage"
	"gupster/internal/dirclient"
	"gupster/internal/dirclient/ring"
	"gupster/internal/policy"
	"gupster/internal/schema"
	"gupster/internal/shard"
	"gupster/internal/token"
	"gupster/internal/wire"
	"gupster/internal/xpath"
)

var testKey = []byte("health-integration-test-key")

// member is one constellation node: a full MDM behind shard routing, with
// a health agent wrapped in front of the wire dispatch.
type member struct {
	info  wire.ShardInfo
	mdm   *core.MDM
	node  *shard.Node
	agent *Agent
	ws    *wire.Server
	ln    net.Listener
}

// startConstellation brings up n full members. Agents are built but not
// started; tests tune Config via mut before Start.
func startConstellation(t *testing.T, n int, mut func(i int, cfg *Config)) []*member {
	t.Helper()
	ms := make([]*member, n)
	for i := range ms {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = &member{
			info: wire.ShardInfo{ID: fmt.Sprintf("s%d", i), Addr: ln.Addr().String()},
			ln:   ln,
		}
	}
	infos := make([]wire.ShardInfo, n)
	for i, m := range ms {
		infos[i] = m.info
	}
	for i, m := range ms {
		mdm := core.New(core.Config{Signer: token.NewSigner(testKey), Schema: schema.GUP()})
		srv := core.NewServer(mdm)
		node := shard.NewNode(shard.NodeConfig{
			ShardID: m.info.ID, MDM: mdm, Inner: wire.HandlerFunc(srv.Handle), Logf: t.Logf,
		})
		cfg := Config{
			Self:           m.info,
			Members:        infos,
			Map:            node.Map,
			SelfInstall:    node.Install,
			Interval:       25 * time.Millisecond,
			SuspectTimeout: 100 * time.Millisecond,
			Logf:           t.Logf,
		}
		if mut != nil {
			mut(i, &cfg)
		}
		agent := New(cfg)
		m.mdm, m.node, m.agent = mdm, node, agent
		m.ws = wire.ServeListener(m.ln, Wrap(agent, node))
		t.Cleanup(func() {
			agent.Close()
			m.ws.Close()
			node.Close()
			mdm.Close()
		})
	}
	return ms
}

func infosOf(ms []*member) []wire.ShardInfo {
	out := make([]wire.ShardInfo, len(ms))
	for i, m := range ms {
		out[i] = m.info
	}
	return out
}

// awaitState polls one agent's view of one member until it reaches want.
func awaitState(t *testing.T, a *Agent, id string, want State, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if a.StateOf(id) == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("agent %s never saw %s as %s (still %s after %v)",
		a.cfg.Self.ID, id, want, a.StateOf(id), within)
}

// A killed member must walk alive → suspect → dead at every peer, and the
// confirmation must wait out the suspect timeout rather than firing on the
// first missed probe.
func TestDetectorConfirmsDeadMember(t *testing.T) {
	ms := startConstellation(t, 3, nil)
	for _, m := range ms {
		m.agent.Start()
	}
	awaitState(t, ms[0].agent, "s2", StateAlive, time.Second)

	ms[2].agent.Close()
	ms[2].ws.Close()
	killed := time.Now()
	awaitState(t, ms[0].agent, "s2", StateDead, 3*time.Second)
	awaitState(t, ms[1].agent, "s2", StateDead, 3*time.Second)
	if elapsed := time.Since(killed); elapsed < ms[0].agent.cfg.SuspectTimeout {
		t.Fatalf("s2 confirmed dead after %v, before the %v suspect timeout",
			elapsed, ms[0].agent.cfg.SuspectTimeout)
	}
	// The survivors keep seeing each other through it all.
	if got := ms[0].agent.StateOf("s1"); got != StateAlive {
		t.Fatalf("s0 sees live peer s1 as %s", got)
	}
	// Membership reports the view for operators.
	view := ms[0].agent.Membership()
	states := map[string]string{}
	for _, mh := range view.Members {
		states[mh.ID] = mh.State
	}
	if states["s2"] != "dead" || states["s1"] != "alive" || states["s0"] != "alive" {
		t.Fatalf("membership view %v, want s2 dead and the rest alive", states)
	}
}

// blockSet is a Dial hook that refuses a mutable set of addresses —
// the unit-test stand-in for a partial partition.
type blockSet struct {
	mu      sync.Mutex
	blocked map[string]bool
}

func (b *blockSet) dial(ctx context.Context, addr string) (*wire.Client, error) {
	b.mu.Lock()
	bad := b.blocked[addr]
	b.mu.Unlock()
	if bad {
		return nil, errors.New("blockSet: partitioned")
	}
	return wire.DialContext(ctx, addr)
}

func (b *blockSet) set(addr string, on bool) {
	b.mu.Lock()
	b.blocked[addr] = on
	b.mu.Unlock()
}

// A partial partition — s0 cannot reach s1 directly, but s2 can — must
// NOT produce a false positive: the indirect ping-req through s2
// witnesses s1's round trip and keeps it alive at s0.
func TestPartialPartitionRefutesViaRelay(t *testing.T) {
	block := &blockSet{blocked: map[string]bool{}}
	ms := startConstellation(t, 3, func(i int, cfg *Config) {
		if i == 0 {
			cfg.Dial = block.dial
		}
	})
	block.set(ms[1].info.Addr, true) // s0 ↛ s1 from the first probe on
	for _, m := range ms {
		m.agent.Start()
	}

	// Ten suspect timeouts of settling: plenty of rounds to misfire in.
	time.Sleep(time.Second)
	if got := ms[0].agent.StateOf("s1"); got != StateAlive {
		t.Fatalf("s0 sees s1 as %s behind a partial partition with a live relay, want alive", got)
	}
	if got := ms[1].agent.StateOf("s0"); got != StateAlive {
		t.Fatalf("s1 sees s0 as %s, want alive (that direction is unimpaired)", got)
	}
}

// A transient full partition must resolve through refutation: the cut-off
// peers are confirmed dead, and the first post-heal ack pulls them
// straight back to alive.
func TestRefutationAfterPartitionHeals(t *testing.T) {
	block := &blockSet{blocked: map[string]bool{}}
	ms := startConstellation(t, 3, func(i int, cfg *Config) {
		if i == 0 {
			cfg.Dial = block.dial
		}
	})
	for _, m := range ms {
		m.agent.Start()
	}
	awaitState(t, ms[0].agent, "s1", StateAlive, time.Second)

	// Cut s0 off from everyone; pooled connections must go too, or the
	// hook never sees another dial.
	block.set(ms[1].info.Addr, true)
	block.set(ms[2].info.Addr, true)
	ms[0].agent.conns.Evict(ms[1].info.Addr)
	ms[0].agent.conns.Evict(ms[2].info.Addr)
	awaitState(t, ms[0].agent, "s1", StateDead, 3*time.Second)
	awaitState(t, ms[0].agent, "s2", StateDead, 3*time.Second)

	block.set(ms[1].info.Addr, false)
	block.set(ms[2].info.Addr, false)
	awaitState(t, ms[0].agent, "s1", StateAlive, 3*time.Second)
	awaitState(t, ms[0].agent, "s2", StateAlive, 3*time.Second)
}

// A node whose entire outbound path is broken sees the whole map dead —
// and must NOT repair: its alive view (itself) is a minority of the map,
// and the majority gate keeps the partitioned node from seizing the
// namespace. Meanwhile the healthy majority, whose probes still round-trip
// through the broken node's intact inbound path, keeps it alive and does
// not repair either.
func TestMinorityViewDoesNotRepair(t *testing.T) {
	repairs := make(chan RepairEvent, 8)
	dead := &blockSet{blocked: map[string]bool{}}
	ms := startConstellation(t, 3, func(i int, cfg *Config) {
		cfg.AutoRepair = true
		cfg.OnRepair = func(ev RepairEvent) { repairs <- ev }
		if i == 1 {
			cfg.Dial = dead.dial // s1's outbound is fully broken…
		}
	})
	dead.set(ms[0].info.Addr, true)
	dead.set(ms[2].info.Addr, true)
	m := wire.ShardMap{Version: 1, Shards: infosOf(ms)}
	for _, mm := range ms {
		if _, err := mm.node.Install(&wire.ShardInstallRequest{Map: m}); err != nil {
			t.Fatal(err)
		}
	}
	for _, mm := range ms {
		mm.agent.Start()
	}

	// …so s1 confirms everyone dead, while staying alive at the majority:
	// its server still answers the probes it can hear.
	awaitState(t, ms[1].agent, "s0", StateDead, 3*time.Second)
	awaitState(t, ms[1].agent, "s2", StateDead, 3*time.Second)
	time.Sleep(500 * time.Millisecond) // many armed ticks on all three
	select {
	case ev := <-repairs:
		t.Fatalf("repair fired to v%d@e%d (dead %v) — a minority view repaired, or a false positive killed a live node",
			ev.Version, ev.Epoch, ev.Dead)
	default:
	}
	if got := ms[0].agent.StateOf("s1"); got != StateAlive {
		t.Fatalf("majority sees the inbound-intact node as %s, want alive", got)
	}
	if got := ms[1].node.Ring().Map(); got.Epoch != 0 || got.Version != 1 {
		t.Fatalf("minority node moved the map to v%d@e%d", got.Version, got.Epoch)
	}
}

// The tentpole end-to-end: kill one shard of three with a spare standing
// by. The constellation must confirm the death, promote the spare into a
// fenced (epoch-bumped) map, replay the dead shard's owners from the
// coverage snapshot, and leave every owner resolvable — including through
// a client still holding the pre-repair map.
func TestAutoRepairPromotesSpare(t *testing.T) {
	repairs := make(chan RepairEvent, 8)
	ms := startConstellation(t, 4, func(i int, cfg *Config) {
		cfg.AutoRepair = true
		cfg.ForwardMillis = 50
		cfg.OnRepair = func(ev RepairEvent) { repairs <- ev }
	})
	v1 := wire.ShardMap{Version: 1, Shards: infosOf(ms[:3])} // s3 is the spare
	for _, mm := range ms[:3] {
		if _, err := mm.node.Install(&wire.ShardInstallRequest{Map: v1}); err != nil {
			t.Fatal(err)
		}
	}

	// Seed owners at their home shards before any gossip starts.
	ring, err := ring.Build(v1)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]*member{}
	for _, mm := range ms {
		byID[mm.info.ID] = mm
	}
	owners := map[string][]string{}
	for i := 0; i < 48; i++ {
		owner := fmt.Sprintf("user-%d", i)
		home := ring.Owner(owner).ID
		owners[home] = append(owners[home], owner)
		conn, err := wire.Dial(byID[home].info.Addr)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		err = conn.Call(ctx, wire.TypeRegister, &wire.RegisterRequest{
			Store:   "store-" + owner,
			Address: "127.0.0.1:19999",
			Path:    fmt.Sprintf("/user[@id='%s']/presence", owner),
		}, nil)
		cancel()
		conn.Close()
		if err != nil {
			t.Fatalf("seed register %s at %s: %v", owner, home, err)
		}
	}
	if len(owners["s1"]) == 0 {
		t.Fatal("owner sample has no s1-homed owner")
	}

	for _, mm := range ms {
		mm.agent.Start()
	}
	// Wait for the coordinator (s0, first in map order) to cache s1's
	// coverage snapshot — the repair replays the dead shard from it.
	deadline := time.Now().Add(3 * time.Second)
	for {
		ms[0].agent.mu.Lock()
		haveSnap := ms[0].agent.members["s1"].snapshot != nil
		ms[0].agent.mu.Unlock()
		if haveSnap {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("coordinator never cached s1's coverage snapshot")
		}
		time.Sleep(10 * time.Millisecond)
	}

	ms[1].agent.Close()
	ms[1].ws.Close()

	var ev RepairEvent
	select {
	case ev = <-repairs:
	case <-time.After(10 * time.Second):
		t.Fatal("no repair within 10s of the shard death")
	}
	if len(ev.Dead) != 1 || ev.Dead[0] != "s1" {
		t.Fatalf("repair removed %v, want [s1]", ev.Dead)
	}
	if len(ev.Promoted) != 1 || ev.Promoted[0] != "s3" {
		t.Fatalf("repair promoted %v, want the spare [s3]", ev.Promoted)
	}
	if ev.Epoch != 1 || ev.Version != 2 {
		t.Fatalf("repair installed v%d@e%d, want v2@e1", ev.Version, ev.Epoch)
	}
	got := ms[0].node.Ring().Map()
	if got.Epoch != 1 {
		t.Fatalf("coordinator holds v%d@e%d after repair", got.Version, got.Epoch)
	}
	for _, s := range got.Shards {
		if s.ID == "s1" {
			t.Fatal("repaired map still names the dead shard")
		}
	}

	// A client still on the pre-repair map reaches every owner, including
	// the dead shard's, by refreshing off the survivors mid-call.
	cli := dirclient.New()
	if err := cli.Adopt(v1); err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for home, list := range owners {
		for _, owner := range list {
			var resp wire.ResolveResponse
			err := cli.Call(ctx, owner, wire.TypeResolve, &wire.ResolveRequest{
				Path:    fmt.Sprintf("/user[@id='%s']/presence", owner),
				Context: policy.Context{Requester: owner},
				Verb:    token.VerbFetch,
			}, &resp)
			if err != nil {
				t.Fatalf("post-repair resolve for %s (was homed on %s): %v", owner, home, err)
			}
			if len(resp.Alternatives) == 0 {
				t.Fatalf("post-repair resolve for %s (was homed on %s) lost the registration", owner, home)
			}
		}
	}
}

// A newer map learned through anti-entropy must fence only a node the
// map EVICTED. A member the map retains adopts it outright instead: the
// repair rebalance still owes its moved owners a dump-and-replay, and
// fencing them away first would destroy the only copy of their coverage
// before the replay could read it.
func TestAntiEntropyFencesOnlyEvictedNodes(t *testing.T) {
	ms := startConstellation(t, 3, nil)
	v1 := wire.ShardMap{Version: 1, Shards: infosOf(ms[:2])} // s2 is the spare
	for _, mm := range ms {
		if _, err := mm.node.Install(&wire.ShardInstallRequest{Map: v1}); err != nil {
			t.Fatal(err)
		}
	}
	// v2 is a repair-shaped successor: epoch-bumped, s1 evicted, the
	// spare s2 promoted in its place.
	v2 := wire.ShardMap{Version: 2, Epoch: 1, Shards: []wire.ShardInfo{ms[0].info, ms[2].info}}
	ring1, err := ring.Build(v1)
	if err != nil {
		t.Fatal(err)
	}
	ring2, err := ring.Build(v2)
	if err != nil {
		t.Fatal(err)
	}
	// movedOwner lives on the survivor s0 under v1 but belongs to s2
	// under v2 — exactly the coverage a premature fence would destroy.
	// evictedOwner is part of s1's slice, which s1 must drop on fencing.
	var movedOwner, evictedOwner string
	for i := 0; i < 4096 && (movedOwner == "" || evictedOwner == ""); i++ {
		o := fmt.Sprintf("user-%d", i)
		if movedOwner == "" && ring1.Owner(o).ID == "s0" && ring2.Owner(o).ID == "s2" {
			movedOwner = o
		}
		if evictedOwner == "" && ring1.Owner(o).ID == "s1" {
			evictedOwner = o
		}
	}
	if movedOwner == "" || evictedOwner == "" {
		t.Fatalf("owner search found moved=%q evicted=%q", movedOwner, evictedOwner)
	}
	register := func(mm *member, owner string) string {
		p := fmt.Sprintf("/user[@id='%s']/presence", owner)
		if err := mm.mdm.Register(coverage.StoreID("store-"+owner), "127.0.0.1:19999", xpath.MustParse(p)); err != nil {
			t.Fatal(err)
		}
		return p
	}
	register(ms[0], movedOwner)
	register(ms[1], evictedOwner)

	// s2 (newly promoted, in the map) adopts v2; it is the anti-entropy
	// source the stale members fetch from.
	if _, err := ms[2].node.Install(&wire.ShardInstallRequest{Map: v2}); err != nil {
		t.Fatal(err)
	}
	awaitMap := func(mm *member) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for {
			if m := mm.node.Ring().Map(); m.Epoch == v2.Epoch && m.Version == v2.Version {
				return
			}
			if time.Now().After(deadline) {
				m := mm.node.Ring().Map()
				t.Fatalf("%s never adopted v%d@e%d (still v%d@e%d)", mm.info.ID, v2.Version, v2.Epoch, m.Version, m.Epoch)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	holds := func(mm *member, owner string) bool {
		for _, reg := range mm.mdm.CoverageSnapshot() {
			if o, ok := coverage.UserOf(xpath.MustParse(reg.Path)); ok && o == owner {
				return true
			}
		}
		return false
	}

	// The survivor s0 learns v2: adopt, do not fence. Its moved owner's
	// coverage must survive for the rebalance to replay.
	ms[0].agent.learnMap(v2.Epoch, v2.Version, ms[2].info.ID, ms[2].info.Addr)
	awaitMap(ms[0])
	if !holds(ms[0], movedOwner) {
		t.Fatalf("survivor s0 dropped %s's coverage on anti-entropy adopt — fenced a member the map retains", movedOwner)
	}

	// The evicted s1 learns v2: it must fence, dropping the slice the
	// repair moved away — the split-brain stopper.
	ms[1].agent.learnMap(v2.Epoch, v2.Version, ms[2].info.ID, ms[2].info.Addr)
	awaitMap(ms[1])
	deadline := time.Now().Add(3 * time.Second)
	for holds(ms[1], evictedOwner) {
		if time.Now().After(deadline) {
			t.Fatalf("evicted s1 still holds %s's coverage after fencing to v%d@e%d", evictedOwner, v2.Version, v2.Epoch)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
