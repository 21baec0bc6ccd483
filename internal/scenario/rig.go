package scenario

import (
	"context"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gupster/internal/core"
	"gupster/internal/coverage"
	"gupster/internal/dirclient/ring"
	"gupster/internal/dirnode"
	"gupster/internal/faultinject"
	"gupster/internal/health"
	"gupster/internal/journal"
	"gupster/internal/overload"
	"gupster/internal/policy"
	"gupster/internal/replication"
	"gupster/internal/resilience"
	"gupster/internal/schema"
	"gupster/internal/shard"
	"gupster/internal/store"
	"gupster/internal/token"
	"gupster/internal/wire"
	"gupster/internal/workload"
	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

// signerKey is the shared HMAC key every rig component signs with — one
// key so MDMs, stores and direct-fetch clients interoperate.
var signerKey = []byte("gupbench-shared-key")

// mdmConfig translates a rig spec into the core configuration.
func mdmConfig(spec *RigSpec, signer *token.Signer) core.Config {
	cfg := core.Config{
		Schema:       schema.GUP(),
		Signer:       signer,
		GrantTTL:     time.Minute,
		CacheEntries: spec.CacheEntries,
	}
	if spec.RetryAttempts > 0 {
		cfg.Retry = resilience.Policy{MaxAttempts: spec.RetryAttempts, PerAttempt: spec.PerAttempt}
	}
	if spec.Baseline {
		cfg.DisableCoalescing = true
		cfg.FanOut = 1
	}
	if spec.DisableCoalescing {
		cfg.DisableCoalescing = true
	}
	if spec.MaxConcurrency > 0 {
		cfg.Overload = overload.Config{
			MaxConcurrency: spec.MaxConcurrency,
			QueueDepth:     spec.QueueDepth,
		}
	}
	if spec.LeaseTTL > 0 {
		cfg.LeaseTTL = spec.LeaseTTL
		cfg.LeaseGrace = spec.LeaseGrace
	}
	return cfg
}

// StoreNode is one data store of a rig: engine, server, the optional
// fault proxy in front of it, and the optional registrar heartbeating
// its coverage.
type StoreNode struct {
	Index  int
	Engine *store.Engine
	Server *store.Server
	// Proxy is the injectable link; nil when the spec declared none.
	Proxy *faultinject.Proxy
	// Addr is the address the MDM registered — the proxy when present.
	Addr string
	// Coverage lists the node's registered paths.
	Coverage []string
	// mu orders the events that silence, restore and revive the store: a
	// timeline may fire them from several goroutines.
	mu sync.Mutex
	// Registrar heartbeats the coverage (Heartbeats rigs only).
	Registrar *store.Registrar
	// Dead marks a blacked-out store whose registrar has been silenced;
	// a re-registration herd revives it.
	Dead bool
}

// DirNode is one member of one shard of a rig's directory, as
// dirnode.Start assembled it, plus what the rig put around it.
type DirNode struct {
	// Node is the serving stack: Node.MDM the directory (slice),
	// Node.Repl the replication layer (replicated shards), Node.Shard the
	// routing layer (rigs of two shards or more).
	Node *dirnode.Node
	// ID is the shard ID ("" on a one-shard rig).
	ID string
	// Addr is what clients and peers dial: the proxy when the spec
	// declares an mdm link or shard-links, else the listener. Partitions
	// act on the proxy.
	Addr  string
	Proxy *faultinject.Proxy
	// Dir is the temp journal directory of a replicated member.
	Dir string
	// Killed marks a node hard-closed mid-run (a kill event); pollers and
	// the teardown audit skip it.
	Killed atomic.Bool
}

// Rig is a built topology instance: one MDM fronting a set of stores,
// with fault-injectable links, seeded users and a shared signer. Build
// one from a spec; Close tears it down registrars-first so no goroutine
// outlives it.
//
// The directory side is Nodes: S shards × R members (RigSpec.shape),
// shard-major, so a plain rig is 1×1, a quorum constellation 1×R and a
// partitioned directory S×1. MDM aliases shard 0's seed-time head for
// in-process counters and MDMAddr is where clients bootstrap; workload
// mutations ride a directory handle so they re-home when leadership or the
// map moves.
type Rig struct {
	Spec   RigSpec
	Seed   int64
	Signer *token.Signer

	MDM *core.MDM
	// MDMProxy fronts the MDM for clients when the spec declares an mdm
	// link; MDMAddr is what clients dial either way.
	MDMProxy *faultinject.Proxy
	MDMAddr  string

	Nodes []*DirNode

	// shardMap/shardRing track the currently installed map (S >= 2).
	shardMu   sync.Mutex
	shardMap  wire.ShardMap
	shardRing *ring.Ring

	// repairs collects completed auto-repairs from every shard's gossip
	// agent (auto-repair rigs); WaitRepair polls it.
	repairMu sync.Mutex
	repairs  []health.RepairEvent

	Stores []*StoreNode
	// Users is the owner population; Paths the registered coverage paths
	// of the split layout (the batch-resolve targets).
	Users []string
	Paths []string

	// acked collects quorum-acknowledged workload registrations (the
	// register verb); the teardown audit checks every one survived the
	// failover.
	ackedMu sync.Mutex
	acked   []wire.RegisterRequest

	rigIdx int
}

// Build constructs a rig from its spec. seed drives payload generation
// and every fault proxy's RNG; rigIdx salts the derivation so multi-rig
// scenarios draw independent streams.
func Build(spec RigSpec, seed int64, rigIdx int) (*Rig, error) {
	r := &Rig{Spec: spec, Seed: seed, Signer: token.NewSigner(signerKey), rigIdx: rigIdx}
	if err := r.build(); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

func (r *Rig) build() error {
	spec := &r.Spec
	if err := r.buildDirectory(); err != nil {
		return err
	}

	for i := 0; i < spec.Stores; i++ {
		node, err := r.buildStore(i)
		if err != nil {
			return err
		}
		r.Stores = append(r.Stores, node)
	}

	switch spec.Layout {
	case LayoutSplit:
		if err := r.seedSplit(); err != nil {
			return err
		}
	case LayoutSharded:
		if err := r.seedSharded(); err != nil {
			return err
		}
	}

	if _, members := spec.shape(); members >= 2 {
		if err := r.waitSeedReplicated(20 * r.electionTTL()); err != nil {
			return err
		}
	}

	if spec.Heartbeats {
		for _, node := range r.Stores {
			if err := r.startRegistrar(node); err != nil {
				return err
			}
		}
	}
	return nil
}

// waitSeedReplicated waits until every member of each shard holds that
// shard's whole seed. Seeding is acknowledged at quorum, so the member
// outside it can still be a record behind when the last registration
// returns — and members answer reads from their own state, so a phase that
// started now could resolve through that member and be told an owner it was
// just seeded with has no store.
func (r *Rig) waitSeedReplicated(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	shards, _ := r.Spec.shape()
	for k := range shards {
		want := r.head(k).Node.MDM.Registry.Len()
		for _, mem := range r.members(k) {
			for mem.Node.MDM.Registry.Len() < want {
				if time.Now().After(deadline) {
					return fmt.Errorf("rig %s: %s holds %d of %d seeded registrations after %s",
						r.Spec.Name, mem.Addr, mem.Node.MDM.Registry.Len(), want, timeout)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
	return nil
}

// members returns shard k's nodes.
func (r *Rig) members(k int) []*DirNode {
	_, n := r.Spec.shape()
	return r.Nodes[k*n : (k+1)*n]
}

// head is the node of shard k that owner-routed work goes to: its live
// leader on a replicated shard (any live member mid-election, the first as
// a last resort), else its one node.
func (r *Rig) head(k int) *DirNode {
	if i := r.Leader(k); i >= 0 {
		return r.Nodes[i]
	}
	ms := r.members(k)
	for _, m := range ms {
		if !m.Killed.Load() {
			return m
		}
	}
	return ms[0]
}

// shardInfo is shard k's map entry: its first member's address and, on a
// replicated shard, every member's — as dirnode's tests build it.
func (r *Rig) shardInfo(k int) wire.ShardInfo {
	ms := r.members(k)
	info := wire.ShardInfo{ID: ms[0].ID, Addr: ms[0].Addr}
	if len(ms) >= 2 {
		for _, m := range ms {
			info.Members = append(info.Members, m.Addr)
		}
	}
	return info
}

// buildDirectory assembles the directory side — S shards × R members — in
// two passes. First every node's listener is bound and, where the spec
// declares a link, fronted by its fault proxy — replicas and gossip agents
// need every peer's dialable address before any of them starts, and
// addressing peers through the proxies makes a partition sever
// replication, gossip and repair traffic alike. Then dirnode.Start stacks
// and serves each node. The members of a replicated shard peer with each
// other only and journal to temp directories; each shard then waits for its
// first election, and seeding runs through the leader's directory
// in-process, which acks only after a quorum holds the record. With two
// shards or more every shard starts — spares included, so a spare
// redirects rather than mis-serving — under the version-1 map of the
// non-spare shards; seeding registers each owner at its home shard, as the
// ring routes it.
func (r *Rig) buildDirectory() error {
	spec := &r.Spec
	shards, members := spec.shape()
	link, linkBase := spec.Links.MDM, 0
	if shards >= 2 {
		link, linkBase = spec.ShardLinks, 100
	}
	lns := make([]net.Listener, shards*members)
	defer func() {
		for _, ln := range lns { // whatever no node took ownership of
			if ln != nil {
				ln.Close()
			}
		}
	}()
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns[i] = ln
		node := &DirNode{Addr: ln.Addr().String()}
		r.Nodes = append(r.Nodes, node)
		if shards >= 2 {
			node.ID = fmt.Sprintf("shard-%d", i/members)
		}
		if link != nil {
			p, err := r.newProxy(node.Addr, link, linkBase+i)
			if err != nil {
				return err
			}
			node.Proxy, node.Addr = p, p.Addr()
		}
	}
	infos := make([]wire.ShardInfo, shards)
	for k := range infos {
		infos[k] = r.shardInfo(k)
	}

	for i, node := range r.Nodes {
		cfg := dirnode.Config{
			MDM:       mdmConfig(spec, r.Signer),
			Listener:  lns[i],
			Advertise: node.Addr,
		}
		if members >= 2 {
			dir, err := os.MkdirTemp("", "gupster-scenario-*")
			if err != nil {
				return err
			}
			node.Dir = dir
			cfg.DataDir, cfg.Journal = dir, journal.Options{NoSync: true}
			cfg.Replication = &replication.Config{Quorum: spec.Quorum, TTL: r.electionTTL()}
			for _, peer := range r.members(i / members) {
				if peer != node {
					cfg.Replication.Peers = append(cfg.Replication.Peers, peer.Addr)
				}
			}
		}
		if shards >= 2 {
			cfg.ShardID = node.ID
			cfg.ShardMap = wire.ShardMap{Version: 1, Shards: infos[:spec.Shards]}
			if spec.AutoRepair {
				// Members cover the whole constellation: the spares are the
				// promotion pool.
				cfg.Gossip = &health.Config{
					Members:        infos,
					Interval:       spec.GossipInterval,
					SuspectTimeout: spec.SuspectTimeout,
					AutoRepair:     true,
					ForwardMillis:  300,
					OnRepair:       r.recordRepair,
				}
			}
		}
		lns[i] = nil // Start owns the listener from here, error or not
		n, err := dirnode.Start(cfg)
		if err != nil {
			return err
		}
		node.Node = n
	}

	if members >= 2 {
		wait := 20 * r.electionTTL()
		for k := range shards {
			if r.WaitLeader(k, wait) < 0 {
				return fmt.Errorf("rig %s: shard %d elected no leader within %s", spec.Name, k, wait)
			}
		}
	}
	// Shard 0's head stands in as "the MDM" for pipeline counters and as
	// the address clients bootstrap from.
	head := r.head(0)
	r.MDM, r.MDMAddr = head.Node.MDM, head.Addr
	if shards >= 2 {
		r.shardMap, r.shardRing = head.Node.Shard.Map(), head.Node.Shard.Ring()
	} else {
		r.MDMProxy = head.Proxy
	}
	return nil
}

// electionTTL is the replicated rig's leader lease (spec value or 500ms).
func (r *Rig) electionTTL() time.Duration {
	if r.Spec.ElectionTTL > 0 {
		return r.Spec.ElectionTTL
	}
	return 500 * time.Millisecond
}

// directoryFor returns the MDM holding an owner's directory slice: the
// head of the owner's home shard — by the current ring with two shards or
// more, else shard 0.
func (r *Rig) directoryFor(owner string) *core.MDM {
	k := 0
	if shards, _ := r.Spec.shape(); shards >= 2 {
		r.shardMu.Lock()
		ring := r.shardRing
		r.shardMu.Unlock()
		k = shardIndex(ring.Owner(owner).ID)
	}
	return r.head(k).Node.MDM
}

// Rebalance expands the shard map onto the rig's spare shards and runs
// the live three-phase rebalance against the running constellation,
// replaying moved coverage shard-to-shard while resolves continue.
// Returns how many seeded owners changed home shards.
func (r *Rig) Rebalance(ctx context.Context) (int, error) {
	r.shardMu.Lock()
	old := r.shardMap
	r.shardMu.Unlock()
	next := wire.ShardMap{Version: old.Version + 1}
	shards, _ := r.Spec.shape()
	for k := range shards {
		next.Shards = append(next.Shards, r.shardInfo(k))
	}
	oldRing, err := ring.Build(old)
	if err != nil {
		return 0, err
	}
	nextRing, err := ring.Build(next)
	if err != nil {
		return 0, err
	}
	moved := 0
	for _, u := range r.Users {
		if oldRing.Owner(u).ID != nextRing.Owner(u).ID {
			moved++
		}
	}
	if err := shard.Rebalance(ctx, old, next, shard.RebalanceOptions{ForwardMillis: 300}); err != nil {
		return moved, err
	}
	r.shardMu.Lock()
	r.shardMap, r.shardRing = next, nextRing
	r.shardMu.Unlock()
	return moved, nil
}

// recordRepair is the OnRepair hook every shard agent shares.
func (r *Rig) recordRepair(ev health.RepairEvent) {
	r.repairMu.Lock()
	r.repairs = append(r.repairs, ev)
	r.repairMu.Unlock()
}

// WaitRepair blocks until some agent completes a repair to an epoch above
// sinceEpoch, returning its event; ok=false on timeout.
func (r *Rig) WaitRepair(sinceEpoch uint64, timeout time.Duration) (health.RepairEvent, bool) {
	deadline := time.Now().Add(timeout)
	for {
		r.repairMu.Lock()
		for _, ev := range r.repairs {
			if ev.Epoch > sinceEpoch {
				r.repairMu.Unlock()
				return ev, true
			}
		}
		r.repairMu.Unlock()
		if time.Now().After(deadline) {
			return health.RepairEvent{}, false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// CurrentEpoch reads the repair epoch a live shard currently serves — the
// baseline a WaitRepair measures progress against.
func (r *Rig) CurrentEpoch() uint64 {
	for _, s := range r.Nodes {
		if !s.Killed.Load() && s.Node.Shard != nil {
			return s.Node.Shard.Map().Epoch
		}
	}
	return 0
}

// refreshShardView re-reads the installed map from a live shard, so
// directoryFor and the audit probes route by the post-repair ring rather
// than the map the rig installed at build time.
func (r *Rig) refreshShardView() {
	for _, s := range r.Nodes {
		if s.Killed.Load() || s.Node.Shard == nil {
			continue
		}
		cur := s.Node.Shard.Ring()
		m := cur.Map()
		r.shardMu.Lock()
		if ring.Compare(m, r.shardMap) > 0 {
			r.shardMap, r.shardRing = m, cur
		}
		r.shardMu.Unlock()
		return
	}
}

// liveShard lists the named shard's members still alive; nil when none is.
func (r *Rig) liveShard(id string) []*DirNode {
	k := shardIndex(id)
	if shards, _ := r.Spec.shape(); k < 0 || k >= shards {
		return nil
	}
	var live []*DirNode
	for _, m := range r.members(k) {
		if !m.Killed.Load() {
			live = append(live, m)
		}
	}
	return live
}

// Kill hard-kills every member of the named shard: the nodes and their
// fault proxies go down, so peer dials are refused — the in-process analog
// of losing the shard's machines. Reports whether a live member was killed.
func (r *Rig) Kill(id string) bool {
	live := r.liveShard(id)
	for _, m := range live {
		m.kill()
	}
	return live != nil
}

// kill hard-closes a node mid-run and marks it so pollers skip it.
func (n *DirNode) kill() {
	n.Killed.Store(true)
	n.Node.Close()
	if n.Proxy != nil {
		n.Proxy.Close()
	}
}

// Partition imposes (on=true) or heals the one-way partition on the proxies
// of the named shard's members: inbound requests still land, but their
// replies vanish — the shard can hear and not be heard. Reports whether a
// live member was there to partition (Event.validate has required the
// proxies).
func (r *Rig) Partition(id string, on bool) bool {
	live := r.liveShard(id)
	for _, m := range live {
		m.Proxy.PartitionOneWay(on)
	}
	return live != nil
}

// Leader returns the index in Nodes of shard k's live member currently
// reporting itself leader, or -1 mid-election and on unreplicated shards.
func (r *Rig) Leader(k int) int {
	_, n := r.Spec.shape()
	for i, mem := range r.members(k) {
		if !mem.Killed.Load() && mem.Node.Repl != nil && mem.Node.Repl.Status().Role == "leader" {
			return k*n + i
		}
	}
	return -1
}

// WaitLeader polls until shard k has a live leader, returning its index or
// -1 on timeout.
func (r *Rig) WaitLeader(k int, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		if i := r.Leader(k); i >= 0 {
			return i
		}
		if time.Now().After(deadline) {
			return -1
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// KillLeader hard-closes shard k's current leader (listener, shippers,
// election loop, journal — the in-process analog of kill -9) and returns
// its index, or -1 when no member holds the lease right now.
func (r *Rig) KillLeader(k int) int {
	i := r.Leader(k)
	if i >= 0 {
		r.Nodes[i].kill()
	}
	return i
}

// MemberAddrs lists every member's address, shard-major — the directory
// handle's seed list.
func (r *Rig) MemberAddrs() []string {
	addrs := make([]string, len(r.Nodes))
	for i, mem := range r.Nodes {
		addrs[i] = mem.Addr
	}
	return addrs
}

// RecordAcked notes a quorum-acknowledged workload registration for the
// teardown audit.
func (r *Rig) RecordAcked(reg wire.RegisterRequest) {
	r.ackedMu.Lock()
	r.acked = append(r.acked, reg)
	r.ackedMu.Unlock()
}

// newProxy builds one fault proxy with the spec's initial settings and a
// positionally derived RNG seed.
func (r *Rig) newProxy(backend string, l *LinkSpec, linkIdx int) (*faultinject.Proxy, error) {
	p, err := faultinject.NewProxy(backend, linkSeed(r.Seed, r.rigIdx, linkIdx))
	if err != nil {
		return nil, err
	}
	if l.Latency > 0 || l.Jitter > 0 {
		p.SetLatency(l.Latency, l.Jitter)
	}
	if l.Bandwidth > 0 {
		p.SetBandwidth(l.Bandwidth)
	}
	return p, nil
}

func (r *Rig) buildStore(i int) (*StoreNode, error) {
	eng := store.NewEngine(fmt.Sprintf("store-%d", i))
	srv := store.NewServer(eng, r.Signer)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	node := &StoreNode{Index: i, Engine: eng, Server: srv, Addr: srv.Addr()}
	if l := r.Spec.link(eng.ID()); l != nil {
		p, err := r.newProxy(srv.Addr(), l, i+1)
		if err != nil {
			srv.Close()
			return nil, err
		}
		node.Proxy = p
		node.Addr = p.Addr()
	}
	return node, nil
}

// register records a coverage path for a node at its owner's directory.
func (r *Rig) register(node *StoreNode, path string) error {
	p := xpath.MustParse(path)
	owner, _ := coverage.UserOf(p)
	return r.directoryFor(owner).Register(coverage.StoreID(node.Engine.ID()), node.Addr, p)
}

// seedSplit builds the E16 topology: one user "u" whose address book is
// split across every store by item type.
func (r *Rig) seedSplit() error {
	spec := &r.Spec
	r.Users = []string{"u"}
	book := workload.AddressBookOfSize(spec.SizeBytes, workload.Rand(dataSeed(r.Seed, r.rigIdx, 0)))
	pieces := make([]*xmltree.Node, spec.Stores)
	for i := range pieces {
		pieces[i] = xmltree.New("address-book")
	}
	for i, item := range book.ChildrenNamed("item") {
		it := item.Clone()
		it.SetAttr("type", fmt.Sprintf("t%d", i%spec.Stores))
		pieces[i%spec.Stores].Add(it)
	}
	bookPath := xpath.MustParse("/user[@id='u']/address-book")
	for i, node := range r.Stores {
		if _, err := node.Engine.Put("u", bookPath, pieces[i]); err != nil {
			return err
		}
		reg := fmt.Sprintf("/user[@id='u']/address-book/item[@type='t%d']", i)
		if err := r.register(node, reg); err != nil {
			return err
		}
		node.Coverage = append(node.Coverage, reg)
		r.Paths = append(r.Paths, reg)
	}
	return nil
}

// seedSharded builds the E19/E20 topology: Users owners, user i's
// profile held whole by store i mod Stores. ProfileFull adds devices,
// calendar and reach-me preferences alongside the address book.
func (r *Rig) seedSharded() error {
	spec := &r.Spec
	for i := 0; i < spec.Users; i++ {
		user := workload.UserID(i)
		r.Users = append(r.Users, user)
		node := r.Stores[i%spec.Stores]
		rng := workload.Rand(dataSeed(r.Seed, r.rigIdx, i+1))
		put := func(section string, doc *xmltree.Node) error {
			p := fmt.Sprintf("/user[@id='%s']/%s", user, section)
			if _, err := node.Engine.Put(user, xpath.MustParse(p), doc); err != nil {
				return err
			}
			node.Coverage = append(node.Coverage, p)
			return r.register(node, p)
		}
		if err := put("address-book", workload.AddressBookOfSize(spec.SizeBytes, rng)); err != nil {
			return err
		}
		if spec.Profile == ProfileFull {
			if err := put("devices", workload.Devices(user)); err != nil {
				return err
			}
			if err := put("calendar", workload.Calendar(8, rng)); err != nil {
				return err
			}
			if err := put("preferences", workload.ReachMePreferences()); err != nil {
				return err
			}
		}
	}
	return nil
}

// startRegistrar attaches a heartbeating registrar to a node. The
// registrar talks to the MDM directly (not through the client-facing
// proxy): store liveness is a control-plane concern, and a blackout
// silences it explicitly (see BlackoutStore).
func (r *Rig) startRegistrar(node *StoreNode) error {
	reg := store.NewRegistrar(store.RegistrarConfig{
		Store:    node.Engine.ID(),
		Addr:     node.Addr,
		MDM:      r.Nodes[0].Node.Addr(),
		Coverage: node.Coverage,
		Interval: r.Spec.LeaseTTL / 2,
	})
	if err := reg.Start(context.Background()); err != nil {
		reg.Close()
		return err
	}
	node.Registrar = reg
	return nil
}

// Link resolves a link name ("mdm" or "store-N") to its fault proxy;
// nil when the link has no proxy.
func (r *Rig) Link(name string) *faultinject.Proxy {
	if name == "mdm" {
		return r.MDMProxy
	}
	if i := storeIndex(name); i >= 0 && i < len(r.Stores) {
		return r.Stores[i].Proxy
	}
	return nil
}

// BlackoutStore darkens or restores a store's link. Darkening also stops
// the registrar, so the store neither serves nor renews its lease — the
// MDM's lease machinery quarantines it after TTL+grace. Restoring the link
// does not resume heartbeats — that is what a re-registration herd
// (ReviveStore) is for, mirroring a real store process restarting.
func (r *Rig) BlackoutStore(i int, on bool) {
	node := r.Stores[i]
	node.mu.Lock()
	defer node.mu.Unlock()
	if node.Proxy != nil {
		node.Proxy.Blackout(on)
	}
	if on {
		if node.Registrar != nil {
			node.Registrar.Close()
			node.Registrar = nil
		}
		node.Dead = true
	}
}

// DeadStores lists the silenced stores — the "all-dead" herd.
func (r *Rig) DeadStores() []int {
	var dead []int
	for _, node := range r.Stores {
		node.mu.Lock()
		if node.Dead {
			dead = append(dead, node.Index)
		}
		node.mu.Unlock()
	}
	return dead
}

// ReviveStore re-registers a dead store's whole coverage and resumes
// heartbeats — one member of the thundering herd.
func (r *Rig) ReviveStore(ctx context.Context, i int) error {
	node := r.Stores[i]
	node.mu.Lock()
	defer node.mu.Unlock()
	if node.Proxy != nil {
		node.Proxy.Blackout(false)
	}
	if r.Spec.Heartbeats {
		if err := r.startRegistrar(node); err != nil {
			return err
		}
	} else {
		for _, p := range node.Coverage {
			if err := r.register(node, p); err != nil {
				return err
			}
		}
	}
	node.Dead = false
	return nil
}

// ExpectedRegistrations is the rig's full coverage count — what the
// MDM's registry must hold when no registration has been lost.
func (r *Rig) ExpectedRegistrations() int {
	n := 0
	for _, node := range r.Stores {
		n += len(node.Coverage)
	}
	return n
}

// auditCoverage fills the audit's registration counts: which seed
// coverage paths the directory still holds (the workload may have
// legitimately registered more, so a raw registry size proves nothing) and
// how many quorum-acked workload registrations went missing — the
// zero-lost claim a leader kill must not break.
func (r *Rig) auditCoverage(audit *RegistrationAudit) {
	r.ackedMu.Lock()
	acked := append([]wire.RegisterRequest(nil), r.acked...)
	r.ackedMu.Unlock()
	canon := func(store, path string) string {
		return store + "|" + xpath.MustParse(path).String()
	}
	// The directory is the union of its live shards' slices, each read at
	// the shard's head (a mid-drain source may briefly hold a moved owner
	// alongside its new home, so a raw sum would double-count). A dead
	// shard is excluded: its slice is stale by definition, and counting it
	// could mask a registration the repair failed to move.
	present := map[string]bool{}
	shards, _ := r.Spec.shape()
	for k := range shards {
		head := r.head(k)
		if head.Killed.Load() {
			continue
		}
		for _, reg := range head.Node.MDM.CoverageSnapshot() {
			present[reg.Store+"|"+reg.Path] = true
		}
	}
	for _, node := range r.Stores {
		for _, p := range node.Coverage {
			if present[canon(node.Engine.ID(), p)] {
				audit.Registered++
			}
		}
	}
	audit.Acked = len(acked)
	for _, reg := range acked {
		if !present[canon(reg.Store, reg.Path)] {
			audit.Lost++
		}
	}
	if r.Spec.AutoRepair {
		r.auditConstellation(audit)
	}
}

// constellationView summarizes the live shards' state: how many distinct
// (epoch, version) map coordinates they serve, and how many owners more
// than one live shard claims to own (coverage held on two slices at
// once — the split-brain signature, transient only while a handoff
// drains).
func (r *Rig) constellationView() (views, splitBrain int) {
	coords := map[[2]uint64]bool{}
	ownersAt := map[string]map[string]bool{}
	for _, s := range r.Nodes {
		if s.Killed.Load() {
			continue
		}
		m := s.Node.Shard.Map()
		coords[[2]uint64{m.Epoch, m.Version}] = true
		for _, reg := range s.Node.MDM.CoverageSnapshot() {
			owner, ok := coverage.UserOf(xpath.MustParse(reg.Path))
			if !ok {
				continue
			}
			if ownersAt[owner] == nil {
				ownersAt[owner] = map[string]bool{}
			}
			ownersAt[owner][s.ID] = true
		}
	}
	for _, at := range ownersAt {
		if len(at) > 1 {
			splitBrain++
		}
	}
	return len(coords), splitBrain
}

// auditConstellation records post-run convergence for an auto-repair
// rig: every live shard on one map coordinate, no owner held by two
// slices. Handoff drains and anti-entropy fencing both run on timers, so
// the audit polls briefly before recording what it sees.
func (r *Rig) auditConstellation(audit *RegistrationAudit) {
	deadline := time.Now().Add(5 * time.Second)
	views, splitBrain := r.constellationView()
	for (views != 1 || splitBrain != 0) && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		views, splitBrain = r.constellationView()
	}
	audit.MapViews = views
	audit.SplitBrainOwners = splitBrain
}

// Close tears the rig down in dependency order: registrars first (stop
// heartbeat traffic), then the directory nodes — each in dirnode's order,
// which ends with its MDM and journal — and their proxies, then the store
// proxies and servers. Every component's Close blocks until its goroutines
// exit, so a closed rig leaks nothing. Idempotent, and safe on a rig whose
// build failed half-way.
func (r *Rig) Close() {
	for _, node := range r.Stores {
		if node.Registrar != nil {
			node.Registrar.Close()
			node.Registrar = nil
		}
	}
	for _, n := range r.Nodes {
		if n.Node != nil {
			n.Node.Close()
		}
		if n.Proxy != nil {
			n.Proxy.Close()
		}
		if n.Dir != "" {
			os.RemoveAll(n.Dir)
		}
	}
	for _, node := range r.Stores {
		if node.Proxy != nil {
			node.Proxy.Close()
		}
		if node.Server != nil {
			node.Server.Close()
		}
	}
}

// probeContext is the request context end-of-run audit probes resolve
// under: the owner asking about themselves.
func probeContext(owner string) policy.Context {
	return policy.Context{Requester: owner, Role: "self"}
}

// probeCoverage resolves one chaining request per registered path owner,
// verifying end-of-run registration integrity (the zero-lost-
// registrations audit). Returns the number of failed probes.
func (r *Rig) probeCoverage(ctx context.Context) int {
	r.refreshShardView()
	failures := 0
	probe := func(owner, path string) {
		// directoryFor routes each probe to the owner's home shard
		// (post-rebalance ring included).
		_, err := r.directoryFor(owner).Resolve(ctx, &wire.ResolveRequest{
			Path:    path,
			Context: probeContext(owner),
			Verb:    token.VerbFetch,
		})
		if err != nil {
			failures++
		}
	}
	switch r.Spec.Layout {
	case LayoutSplit:
		for _, p := range r.Paths {
			probe("u", p)
		}
	default:
		for _, u := range r.Users {
			probe(u, fmt.Sprintf("/user[@id='%s']/address-book", u))
		}
	}
	return failures
}
