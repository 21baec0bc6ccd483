package dirnode

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gupster/internal/core"
	"gupster/internal/dirclient"
	"gupster/internal/health"
	"gupster/internal/journal"
	"gupster/internal/policy"
	"gupster/internal/replication"
	"gupster/internal/schema"
	"gupster/internal/store"
	"gupster/internal/token"
	"gupster/internal/wire"
)

const testTTL = 300 * time.Millisecond

func mdmConfig() core.Config {
	return core.Config{Schema: schema.GUP(), Signer: token.NewSigner([]byte("dirnode-test")), GrantTTL: time.Minute}
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

func start(t *testing.T, cfg Config) *Node {
	t.Helper()
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// One row per refusal gupsterd used to print-and-exit on, plus the ring
// check its shard-map parser ran.
func TestValidate(t *testing.T) {
	two := wire.ShardMap{Version: 1, Shards: []wire.ShardInfo{{ID: "s1", Addr: "a:1"}, {ID: "s2", Addr: "a:2"}}}
	repl := &replication.Config{Peers: []string{"a:2"}}
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the refusal; "" means accepted
	}{
		{"plain", Config{MDM: mdmConfig()}, ""},
		{"router", Config{Router: true, ShardMap: two}, ""},
		{"replicated shard with gossip", Config{MDM: mdmConfig(), DataDir: "d", Replication: repl,
			ShardID: "s1", ShardMap: two, Gossip: &health.Config{}}, ""},

		{"router without map", Config{Router: true}, "requires a shard map"},
		{"shard without map", Config{MDM: mdmConfig(), ShardID: "s1"}, "requires a shard map"},
		{"no key", Config{}, "key is required"},
		{"replication without data dir", Config{MDM: mdmConfig(), Replication: repl}, "requires a data directory"},
		{"gossip without shard", Config{MDM: mdmConfig(), Gossip: &health.Config{AutoRepair: true}}, "requires a shard ID"},
		{"unversioned map", Config{MDM: mdmConfig(), ShardID: "s1",
			ShardMap: wire.ShardMap{Shards: two.Shards}}, "bad shard map"},
		{"duplicate shard in router map", Config{Router: true, ShardMap: wire.ShardMap{Version: 1,
			Shards: []wire.ShardInfo{{ID: "s1", Addr: "a:1"}, {ID: "s1", Addr: "a:2"}}}}, "bad shard map"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("refused: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
			if tc.want != "" {
				// Start refuses the same way and consumes the listener.
				tc.cfg.Listener = listen(t)
				if _, serr := Start(tc.cfg); serr == nil || serr.Error() != err.Error() {
					t.Fatalf("Start err = %v, want %v", serr, err)
				}
				if c, derr := net.Dial("tcp", tc.cfg.Listener.Addr().String()); derr == nil {
					c.Close()
					t.Fatal("refused Start left its listener open")
				}
			}
		})
	}
}

// constellation pre-binds n listeners and returns a quorum-replicated
// Config per member, each journaling to its own temp dir.
func constellation(t *testing.T, n int) []Config {
	t.Helper()
	lns := make([]net.Listener, n)
	for i := range lns {
		lns[i] = listen(t)
	}
	cfgs := make([]Config, n)
	for i := range cfgs {
		rc := &replication.Config{TTL: testTTL}
		for j, ln := range lns {
			if j != i {
				rc.Peers = append(rc.Peers, ln.Addr().String())
			}
		}
		cfgs[i] = Config{
			MDM: mdmConfig(), DataDir: t.TempDir(), Journal: journal.Options{NoSync: true},
			Replication: rc, Listener: lns[i],
		}
	}
	return cfgs
}

func addrs(nodes []*Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Addr()
	}
	return out
}

func waitLeader(t *testing.T, nodes []*Node) {
	t.Helper()
	deadline := time.Now().Add(20 * testTTL)
	for time.Now().Before(deadline) {
		for _, n := range nodes {
			if n.Repl.Status().Role == "leader" {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no leader elected")
}

// mute accepts connections and never answers: a gossip member whose every
// probe runs into its timeout. probed is closed when the first probe
// connects.
func mute(t *testing.T) (addr string, probed <-chan struct{}) {
	t.Helper()
	ln := listen(t)
	t.Cleanup(func() { ln.Close() })
	first := make(chan struct{})
	go func() {
		for i := 0; ; i++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			t.Cleanup(func() { c.Close() })
			if i == 0 {
				close(first)
			}
		}
	}()
	return ln.Addr().String(), first
}

// The shutdown-order regression. gupsterd used to close the MDM — and with
// it the journal — before the gossip agent, the listener and the
// replication loops, so a node on its way down kept answering writes, with
// "journal closed": an answer, which no client retries elsewhere, instead
// of a dropped connection, which every directory handle fails over from.
// Node.Close takes the journal down last. Writers hammer a durable node
// while it closes: every registration that was acked must be in the
// journal when the directory is reopened (on a quorum of the journals,
// replicated), and no write may be answered by a directory that can no
// longer journal. In gupsterd's order the window between journal and
// listener is microseconds on a plain or replicated node, so those rows
// trip only when a write lands in it; on a gossiping shard the agent's
// close waits out a probe in between, and that row trips every time.
func TestCloseOrderKeepsAckedWrites(t *testing.T) {
	durable := func() Config {
		return Config{MDM: mdmConfig(), DataDir: t.TempDir(),
			Journal: journal.Options{NoSync: true}, Listener: listen(t)}
	}
	var midProbe <-chan struct{} // set by the row that must be closed mid-probe
	cases := []struct {
		name string
		cfgs func() []Config
	}{
		{"plain", func() []Config { return []Config{durable()} }},
		{"replicated", func() []Config { return constellation(t, 3) }},
		{"gossiping shard", func() []Config {
			cfg := durable()
			cfg.ShardID = "s1"
			cfg.ShardMap = wire.ShardMap{Version: 1,
				Shards: []wire.ShardInfo{{ID: "s1", Addr: cfg.Listener.Addr().String()}}}
			ghost := wire.ShardInfo{ID: "ghost"}
			ghost.Addr, midProbe = mute(t)
			cfg.Gossip = &health.Config{Interval: 200 * time.Millisecond, Members: []wire.ShardInfo{ghost}}
			return []Config{cfg}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfgs := tc.cfgs()
			members := len(cfgs)
			nodes := make([]*Node, len(cfgs))
			for i, cfg := range cfgs {
				nodes[i] = start(t, cfg)
			}
			if members > 1 {
				waitLeader(t, nodes)
			}

			var (
				mu      sync.Mutex
				acked   []string
				wg      sync.WaitGroup
				stopped atomic.Bool
			)
			for w := 0; w < 4; w++ {
				dir := dirclient.New(addrs(nodes)...)
				defer dir.Close()
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; !stopped.Load(); i++ {
						owner := fmt.Sprintf("w%d-%d", w, i)
						path := fmt.Sprintf("/user[@id='%s']/presence", owner)
						ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
						err := dir.Call(ctx, owner, wire.TypeRegister,
							&wire.RegisterRequest{Store: "s", Address: "127.0.0.1:1", Path: path}, nil)
						cancel()
						var re *wire.RemoteError
						switch {
						case err == nil:
							mu.Lock()
							acked = append(acked, path)
							mu.Unlock()
						case errors.As(err, &re):
							t.Errorf("a closing node answered a write instead of dropping it: %v", err)
							return
						}
					}
				}(w)
			}
			// Close once writes are being acked and, on the gossiping shard,
			// while its agent waits on the mute member.
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
				mu.Lock()
				n := len(acked)
				mu.Unlock()
				if n >= 50 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("only %d writes acked", n)
				}
			}
			if midProbe != nil {
				select {
				case <-midProbe:
				case <-time.After(5 * time.Second):
					t.Fatal("the gossip agent never probed")
				}
			}
			for _, n := range nodes {
				n.Close()
				time.Sleep(20 * time.Millisecond)
			}
			stopped.Store(true)
			wg.Wait()

			held := map[string]int{}
			for _, cfg := range cfgs {
				m := core.New(mdmConfig())
				if _, err := core.OpenDurable(m, cfg.DataDir, cfg.Journal); err != nil {
					t.Fatal(err)
				}
				for _, reg := range m.CoverageSnapshot() {
					held[reg.Path]++
				}
				m.Close()
			}
			quorum := members/2 + 1
			for _, path := range acked {
				if held[path] < quorum {
					t.Errorf("acked registration %s is in %d of %d reopened journals, want >= %d",
						path, held[path], members, quorum)
				}
			}
			t.Logf("%d acked registrations, all durable", len(acked))
		})
	}
}

// The composition gupsterd has always offered and nothing ran: two shards,
// each a three-member quorum constellation, assembled by Start alone.
func TestStartReplicatedShards(t *testing.T) {
	shardIDs := []string{"A", "B"}
	groups := make([][]Config, len(shardIDs))
	m := wire.ShardMap{Version: 1}
	for g, id := range shardIDs {
		groups[g] = constellation(t, 3)
		info := wire.ShardInfo{ID: id}
		for _, cfg := range groups[g] {
			info.Members = append(info.Members, cfg.Listener.Addr().String())
		}
		info.Addr = info.Members[0]
		m.Shards = append(m.Shards, info)
	}
	nodes := make([][]*Node, len(groups))
	for g, cfgs := range groups {
		for _, cfg := range cfgs {
			cfg.ShardID, cfg.ShardMap = shardIDs[g], m
			nodes[g] = append(nodes[g], start(t, cfg))
		}
	}
	for _, group := range nodes {
		waitLeader(t, group)
	}

	dir, err := dirclient.Dial(nodes[1][2].Addr()) // any member of any shard
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	if !dir.Sharded() {
		t.Fatal("handle learnt no shard map from a replicated shard member")
	}

	// One owner per shard, by the ring every node installed.
	rg := nodes[0][0].Shard.Ring()
	owners := map[string]string{}
	for i := 0; len(owners) < len(shardIDs); i++ {
		o := fmt.Sprintf("owner-%d", i)
		if id := rg.Owner(o).ID; owners[id] == "" {
			owners[id] = o
		}
	}
	register := func(owner, store string) error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*testTTL)
		defer cancel()
		return dir.Call(ctx, owner, wire.TypeRegister, &wire.RegisterRequest{
			Store: store, Address: "127.0.0.1:1", Path: fmt.Sprintf("/user[@id='%s']/presence", owner)}, nil)
	}
	resolve := func(owner string) error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*testTTL)
		defer cancel()
		var resp wire.ResolveResponse
		err := dir.Call(ctx, owner, wire.TypeResolve, &wire.ResolveRequest{
			Path:    fmt.Sprintf("/user[@id='%s']/presence", owner),
			Context: policy.Context{Requester: owner, Role: "self"}, Verb: token.VerbFetch}, &resp)
		if err == nil && len(resp.Alternatives) == 0 {
			err = errors.New("resolved to no alternatives")
		}
		return err
	}
	for id, owner := range owners {
		if err := register(owner, "store-1"); err != nil {
			t.Fatalf("register %s on shard %s: %v", owner, id, err)
		}
		if err := resolve(owner); err != nil {
			t.Fatalf("resolve %s on shard %s: %v", owner, id, err)
		}
	}
	// Each registration landed on the owning constellation only.
	holds := func(group []*Node, owner string) bool {
		for _, n := range group {
			if n.Repl.Status().Role != "leader" {
				continue
			}
			for _, reg := range n.MDM.CoverageSnapshot() {
				if strings.Contains(reg.Path, "'"+owner+"'") {
					return true
				}
			}
		}
		return false
	}
	for g, id := range shardIDs {
		for home, owner := range owners {
			if got := holds(nodes[g], owner); got != (home == id) {
				t.Fatalf("shard %s leader holds %s's registration = %v", id, owner, got)
			}
		}
	}

	// Kill shard A's leader. B's owner must resolve throughout; a new
	// registration for an A owner is acked by A's next leader within a few
	// election TTLs.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := resolve(owners["B"]); err != nil {
				t.Errorf("shard B resolve failed while shard A failed over: %v", err)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	killed := -1
	for i, n := range nodes[0] {
		if n.Repl.Status().Role == "leader" {
			killed = i
			n.Close()
			break
		}
	}
	if killed < 0 {
		t.Fatal("shard A lost its leader before the kill")
	}
	// The handle follows a bounded number of redirects per call and hands
	// an election still in progress back to the caller (patience is the
	// caller's, as in federation.MirrorClient), so ask until it is over.
	t0 := time.Now()
	for {
		err := register(owners["A"], "store-2")
		if err == nil {
			break
		}
		var nl *wire.NotLeaderError
		if !errors.As(err, &nl) || time.Since(t0) > 5*testTTL {
			t.Fatalf("register on shard A %s after its leader died: %v", time.Since(t0), err)
		}
	}
	if err := resolve(owners["A"]); err != nil {
		t.Fatalf("resolve on shard A after failover: %v", err)
	}
	close(stop)
	wg.Wait()
	for i, n := range nodes[0] {
		if i != killed && n.Repl.Status().Role == "leader" {
			return
		}
	}
	t.Fatal("no surviving member of shard A reports itself leader")
}

func leaderOf(nodes []*Node) int {
	for i, n := range nodes {
		if n != nil && n.Repl.Status().Role == "leader" {
			return i
		}
	}
	return -1
}

// Leases compose with quorum replication. A store's heartbeat lands on one
// member — the leader, which the registrar's handle chases like any write —
// yet every member answers resolves, so every member must agree with the
// leader about which stores are reachable (Sarker/Khan/Hashem's rule: a
// replica of the location register may not disagree with the home
// register). Before the leader's verdict rode its appends, the followers,
// which renew a lease only when a registration is applied, quarantined
// every beating store after TTL+grace and planned around it.
func TestReplicatedLeasesAgreeOnEveryMember(t *testing.T) {
	const ttl, grace, beat = 200 * time.Millisecond, 200 * time.Millisecond, 100 * time.Millisecond
	const path = "/user[@id='u']/presence"
	cfgs := constellation(t, 3)
	nodes := make([]*Node, len(cfgs))
	for i, cfg := range cfgs {
		cfg.MDM.LeaseTTL, cfg.MDM.LeaseGrace = ttl, grace
		nodes[i] = start(t, cfg)
	}
	waitLeader(t, nodes)
	leader := leaderOf(nodes)
	// The registrar is pointed at a follower that outlives the leader.
	r := store.NewRegistrar(store.RegistrarConfig{Store: "s1", Addr: "127.0.0.1:1",
		MDM: nodes[(leader+1)%3].Addr(), Coverage: []string{path}, Interval: beat, Logf: t.Logf})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// excluded reports a member's verdict on s1: its health table's and its
	// planner's, which must agree.
	excluded := func(i int) bool {
		n := nodes[i]
		var quarantined bool
		for _, l := range n.MDM.LeaseTable() {
			quarantined = quarantined || (l.Store == "s1" && l.Quarantined)
		}
		_, err := n.MDM.Resolve(context.Background(), &wire.ResolveRequest{Path: path,
			Context: policy.Context{Requester: "u", Role: "self"}, Verb: token.VerbFetch})
		if planned := err == nil; planned == quarantined {
			t.Fatalf("member %d: lease table says quarantined=%v, planner says %v", i, quarantined, err)
		}
		return quarantined
	}
	live := func() []int {
		var out []int
		for i, n := range nodes {
			if n != nil {
				out = append(out, i)
			}
		}
		return out
	}
	holdLive := func(what string, d time.Duration) {
		t.Helper()
		for end := time.Now().Add(d); time.Now().Before(end); time.Sleep(20 * time.Millisecond) {
			for _, i := range live() {
				if excluded(i) {
					t.Fatalf("%s: member %d (%s) quarantined a store that beats every %s",
						what, i, nodes[i].Repl.Status().Role, beat)
				}
			}
		}
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		held := 0
		for _, n := range nodes {
			held += n.MDM.Registry.StoreCount("s1")
		}
		if held == len(nodes) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the registration never reached every member")
		}
	}

	holdLive("steady", 4*(ttl+grace))

	// The leader dies; the store keeps beating, now at its successor, which
	// restarts every lease clock as it takes over.
	nodes[leader].Close()
	nodes[leader] = nil
	for deadline := time.Now().Add(20 * testTTL); leaderOf(nodes) < 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no successor elected")
		}
	}
	holdLive("after failover", 3*(ttl+grace))

	// The store goes silent: every member excludes it within TTL+grace of its
	// last beat plus one replication heartbeat (and scheduling slack).
	r.Close()
	stopped := time.Now()
	within := ttl + grace + testTTL/4 + 150*time.Millisecond
	for _, i := range live() {
		for !excluded(i) {
			if time.Since(stopped) > within {
				t.Fatalf("member %d (%s) still plans the silent store %s after it stopped beating",
					i, nodes[i].Repl.Status().Role, time.Since(stopped))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// Gossip's identity is the shard: a replicated shard is alive while any of
// its members answers, and a replica's death is the election's business.
// Agents used to probe only ShardInfo.Addr (Members[0]), so closing that one
// member got a shard with a live leader and follower confirmed dead — and,
// with auto-repair armed, evicted from the map.
func TestGossipProbesEveryMemberOfAReplicatedShard(t *testing.T) {
	const interval, suspect = 50 * time.Millisecond, 200 * time.Millisecond
	shardIDs := []string{"A", "B"}
	groups := make([][]Config, len(shardIDs))
	m := wire.ShardMap{Version: 1}
	for g, id := range shardIDs {
		groups[g] = constellation(t, 3)
		info := wire.ShardInfo{ID: id}
		for _, cfg := range groups[g] {
			info.Members = append(info.Members, cfg.Listener.Addr().String())
		}
		info.Addr = info.Members[0]
		m.Shards = append(m.Shards, info)
	}
	nodes := make([][]*Node, len(groups))
	for g, cfgs := range groups {
		for _, cfg := range cfgs {
			cfg.ShardID, cfg.ShardMap = shardIDs[g], m
			cfg.Gossip = &health.Config{Members: m.Shards, Interval: interval, SuspectTimeout: suspect}
			nodes[g] = append(nodes[g], start(t, cfg))
		}
	}
	for _, group := range nodes {
		waitLeader(t, group)
	}
	stateAtB := func() []string {
		out := make([]string, len(nodes[1]))
		for i, n := range nodes[1] {
			out[i] = n.agent.StateOf("A").String()
		}
		return out
	}

	nodes[0][0].Close() // A's Addr
	for end := time.Now().Add(3 * suspect); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		for _, st := range stateAtB() {
			if st != health.StateAlive.String() {
				t.Fatalf("with two of its three members up, shard A is %v at B's agents", stateAtB())
			}
		}
	}

	nodes[0][1].Close()
	nodes[0][2].Close()
	killed := time.Now()
	for {
		dead := 0
		for _, st := range stateAtB() {
			if st == health.StateDead.String() {
				dead++
			}
		}
		if dead == len(nodes[1]) {
			t.Logf("shard A confirmed dead at every B agent %s after its last member closed", time.Since(killed))
			return
		}
		if time.Since(killed) > 2*suspect+2*interval {
			t.Fatalf("%s after all of shard A closed, B's agents see %v", time.Since(killed), stateAtB())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// One client subscribing to owners on two shards keeps both subscriptions.
// Each shard serves its owner's subscription on a socket of its own; when
// the client kept one notification socket, the second subscribe moved it
// to shard B and closed shard A's, and A's owner heard nothing again.
func TestSubscriptionsOnTwoShardsBothDeliver(t *testing.T) {
	lns := []net.Listener{listen(t), listen(t)}
	m := wire.ShardMap{Version: 1}
	for i, ln := range lns {
		m.Shards = append(m.Shards, wire.ShardInfo{ID: fmt.Sprintf("s%d", i), Addr: ln.Addr().String()})
	}
	nodes := make([]*Node, len(lns))
	for i, ln := range lns {
		nodes[i] = start(t, Config{MDM: mdmConfig(), Listener: ln, ShardID: m.Shards[i].ID, ShardMap: m})
	}
	// owners[i] is homed on shard i.
	owners := make([]string, len(nodes))
	rg := nodes[0].Shard.Ring()
	for i := 0; owners[0] == "" || owners[1] == ""; i++ {
		o := fmt.Sprintf("owner-%d", i)
		for k, s := range m.Shards {
			if rg.Owner(o).ID == s.ID && owners[k] == "" {
				owners[k] = o
			}
		}
	}

	cli, err := core.DialMDM(m.Shards[0].Addr, owners[0], "self")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	got := make([]chan wire.Notification, len(owners))
	for k, owner := range owners {
		got[k] = make(chan wire.Notification, 4)
		cli.Identity = owner
		path := fmt.Sprintf("/user[@id='%s']/presence", owner)
		if _, err := cli.Subscribe(context.Background(), path, func(n wire.Notification) { got[k] <- n }); err != nil {
			t.Fatalf("subscribe %s on shard %d: %v", owner, k, err)
		}
	}
	for k := len(owners) - 1; k >= 0; k-- {
		owner := owners[k]
		nodes[k].MDM.HandleChanged(&wire.ChangedNotice{Store: "s1", User: owner,
			Path: fmt.Sprintf("/user[@id='%s']/presence", owner), XML: `<presence status="on"/>`, Version: 1})
		select {
		case <-got[k]:
		case <-time.After(3 * time.Second):
			t.Fatalf("change for %s on shard %d never delivered", owner, k)
		}
	}
}
