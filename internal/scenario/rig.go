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

// DirNode is one directory node of a rig — the single MDM, one member of
// a quorum-replicated constellation, or one shard — as dirnode.Start
// assembled it, plus what the rig put around it.
type DirNode struct {
	// Node is the serving stack: Node.MDM the directory (slice),
	// Node.Repl the replication layer (replicated rigs), Node.Shard the
	// routing layer (sharded rigs).
	Node *dirnode.Node
	// ID is the shard ID ("" off sharded rigs).
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
// The directory side is Nodes: one node on a plain rig, Spec.Replicas
// members of a quorum constellation, or Spec.Shards+Spec.SpareShards
// shards. MDM aliases one node's directory for in-process counters (the
// seed-time leader's, or the first shard's) and MDMAddr is where clients
// bootstrap; workload mutations ride a directory handle so they re-home
// when leadership or the map moves.
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

	// shardMap/shardRing track the currently installed map (sharded rigs).
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

	if r.replicated() {
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

// waitSeedReplicated waits until every member holds the whole seed. Seeding
// is acknowledged at quorum, so the member outside it can still be a record
// behind when the last registration returns — and members answer reads from
// their own state, so a phase that started now could resolve through that
// member and be told an owner it was just seeded with has no store.
func (r *Rig) waitSeedReplicated(timeout time.Duration) error {
	want := r.MDM.Registry.Len()
	deadline := time.Now().Add(timeout)
	for _, mem := range r.Nodes {
		for mem.Node.MDM.Registry.Len() < want {
			if time.Now().After(deadline) {
				return fmt.Errorf("replicated rig %s: %s holds %d of %d seeded registrations after %s",
					r.Spec.Name, mem.Addr, mem.Node.MDM.Registry.Len(), want, timeout)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

func (r *Rig) replicated() bool { return r.Spec.Replicas >= 2 }
func (r *Rig) sharded() bool    { return r.Spec.Shards >= 2 }

// buildDirectory assembles the directory side, whatever its kind, in two
// passes. First every node's listener is bound and, where the spec
// declares a link, fronted by its fault proxy — constellation members and
// gossip agents need every peer's dialable address before any of them
// starts, and addressing peers through the proxies makes a partition sever
// replication, gossip and repair traffic alike. Then dirnode.Start stacks
// and serves each node. A replicated rig journals to temp directories and
// waits for its first election; seeding then runs through the leader's
// directory in-process, which acks only after a quorum holds the record. A
// sharded rig starts every shard — spares included, so a spare redirects
// rather than mis-serving — under the version-1 map of the non-spare
// shards; seeding registers each owner at its home shard, as the ring
// routes it.
func (r *Rig) buildDirectory() error {
	spec := &r.Spec
	count, link, linkBase := 1, spec.Links.MDM, 0
	switch {
	case r.replicated():
		count = spec.Replicas
	case r.sharded():
		count, link, linkBase = spec.Shards+spec.SpareShards, spec.ShardLinks, 100
	}
	lns := make([]net.Listener, count)
	defer func() {
		for _, ln := range lns { // whatever no node took ownership of
			if ln != nil {
				ln.Close()
			}
		}
	}()
	infos := make([]wire.ShardInfo, count)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns[i] = ln
		node := &DirNode{Addr: ln.Addr().String()}
		r.Nodes = append(r.Nodes, node)
		if r.sharded() {
			node.ID = fmt.Sprintf("shard-%d", i)
		}
		if link != nil {
			p, err := r.newProxy(node.Addr, link, linkBase+i)
			if err != nil {
				return err
			}
			node.Proxy, node.Addr = p, p.Addr()
		}
		infos[i] = wire.ShardInfo{ID: node.ID, Addr: node.Addr}
	}

	for i, node := range r.Nodes {
		cfg := dirnode.Config{
			MDM:       mdmConfig(spec, r.Signer),
			Listener:  lns[i],
			Advertise: node.Addr,
		}
		if r.replicated() {
			dir, err := os.MkdirTemp("", "gupster-scenario-*")
			if err != nil {
				return err
			}
			node.Dir = dir
			cfg.DataDir, cfg.Journal = dir, journal.Options{NoSync: true}
			cfg.Replication = &replication.Config{Quorum: spec.Quorum, TTL: r.electionTTL()}
			for j, peer := range r.Nodes {
				if j != i {
					cfg.Replication.Peers = append(cfg.Replication.Peers, peer.Addr)
				}
			}
		}
		if r.sharded() {
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

	// One node stands in as "the MDM" for pipeline counters and as the
	// address clients bootstrap from: the elected leader, else the first.
	first := r.Nodes[0]
	if r.replicated() {
		wait := 20 * r.electionTTL()
		lead := r.WaitLeader(wait)
		if lead < 0 {
			return fmt.Errorf("replicated rig %s: no leader elected within %s", spec.Name, wait)
		}
		first = r.Nodes[lead]
	}
	r.MDM, r.MDMAddr = first.Node.MDM, first.Addr
	if r.sharded() {
		r.shardMap, r.shardRing = first.Node.Shard.Map(), first.Node.Shard.Ring()
	} else {
		r.MDMProxy = first.Proxy
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
// owner's home shard under the current ring, or the audit MDM on
// unsharded rigs.
func (r *Rig) directoryFor(owner string) *core.MDM {
	if !r.sharded() {
		return r.auditMDM()
	}
	r.shardMu.Lock()
	ring := r.shardRing
	r.shardMu.Unlock()
	home := ring.Owner(owner)
	for _, s := range r.Nodes {
		if s.ID == home.ID {
			return s.Node.MDM
		}
	}
	return r.MDM
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
	for _, s := range r.Nodes {
		next.Shards = append(next.Shards, wire.ShardInfo{ID: s.ID, Addr: s.Addr})
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
		if s.Killed.Load() {
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

// liveShard finds the named shard unless it has been killed.
func (r *Rig) liveShard(id string) *DirNode {
	for _, s := range r.Nodes {
		if s.ID == id && !s.Killed.Load() {
			return s
		}
	}
	return nil
}

// Kill hard-kills the named shard: the whole node and its fault proxy go
// down, so peer dials are refused — the in-process analog of a machine
// loss. Reports whether a live shard was killed.
func (r *Rig) Kill(id string) bool {
	s := r.liveShard(id)
	if s != nil {
		s.kill()
	}
	return s != nil
}

// kill hard-closes a node mid-run and marks it so pollers skip it.
func (n *DirNode) kill() {
	n.Killed.Store(true)
	n.Node.Close()
	if n.Proxy != nil {
		n.Proxy.Close()
	}
}

// Partition imposes (on=true) or heals the one-way partition on the named
// shard's proxy: inbound requests still land, but its replies vanish — the
// shard can hear and not be heard. Reports whether a live shard was there
// to partition (Event.validate has required its proxy).
func (r *Rig) Partition(id string, on bool) bool {
	s := r.liveShard(id)
	if s != nil {
		s.Proxy.PartitionOneWay(on)
	}
	return s != nil
}

// Leader returns the index of the live member currently reporting
// itself leader, or -1 mid-election.
func (r *Rig) Leader() int {
	for i, mem := range r.Nodes {
		if !mem.Killed.Load() && mem.Node.Repl != nil && mem.Node.Repl.Status().Role == "leader" {
			return i
		}
	}
	return -1
}

// WaitLeader polls until some live member is leader, returning its index
// or -1 on timeout.
func (r *Rig) WaitLeader(timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		if i := r.Leader(); i >= 0 {
			return i
		}
		if time.Now().After(deadline) {
			return -1
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// KillLeader hard-closes the current leader's node (listener, shippers,
// election loop, journal — the in-process analog of kill -9) and returns
// its index, or -1 when no member holds the lease right now.
func (r *Rig) KillLeader() int {
	i := r.Leader()
	if i >= 0 {
		r.Nodes[i].kill()
	}
	return i
}

// MemberAddrs lists every constellation address (single-MDM and sharded
// rigs: just MDMAddr) — the directory handle's seed list.
func (r *Rig) MemberAddrs() []string {
	if !r.replicated() {
		return []string{r.MDMAddr}
	}
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

// auditMDM is the directory the end-of-run audit reads: the surviving
// leader of a replicated rig (any live member as a fallback), or the
// single MDM.
func (r *Rig) auditMDM() *core.MDM {
	if !r.replicated() {
		return r.MDM
	}
	if i := r.Leader(); i >= 0 {
		return r.Nodes[i].Node.MDM
	}
	for _, mem := range r.Nodes {
		if !mem.Killed.Load() {
			return mem.Node.MDM
		}
	}
	return r.Nodes[0].Node.MDM
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

// register records a coverage path for a node at the MDM — on a sharded
// rig, at the path owner's home shard, exactly as the ring routes it.
func (r *Rig) register(node *StoreNode, path string) error {
	p := xpath.MustParse(path)
	m := r.MDM
	if r.sharded() {
		if owner, ok := coverage.UserOf(p); ok {
			m = r.directoryFor(owner)
		}
	}
	if err := m.Register(coverage.StoreID(node.Engine.ID()), node.Addr, p); err != nil {
		return err
	}
	node.Coverage = append(node.Coverage, path)
	return nil
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
			if err := r.MDM.Register(coverage.StoreID(node.Engine.ID()), node.Addr, xpath.MustParse(p)); err != nil {
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

// auditCoverage fills the audit's registration counts. A single-MDM rig
// reports its registry size. A replicated rig instead counts which seed
// coverage paths the surviving leader still holds (the workload may have
// legitimately registered more, so a raw registry size proves nothing)
// and how many quorum-acked workload registrations went missing — the
// zero-lost claim a leader kill must not break.
func (r *Rig) auditCoverage(audit *RegistrationAudit) {
	r.ackedMu.Lock()
	acked := append([]wire.RegisterRequest(nil), r.acked...)
	r.ackedMu.Unlock()
	if !r.replicated() && !r.sharded() && len(acked) == 0 {
		audit.Registered = r.auditMDM().Registry.Len()
		return
	}
	canon := func(store, path string) string {
		return store + "|" + xpath.MustParse(path).String()
	}
	// A sharded rig's directory is the union of its slices (a mid-drain
	// source may briefly hold a moved owner alongside its new home, so a
	// raw sum would double-count).
	// A killed shard's MDM is excluded: its slice is stale by definition,
	// and counting it could mask a registration the repair failed to move.
	present := map[string]bool{}
	if r.sharded() {
		for _, s := range r.Nodes {
			if s.Killed.Load() {
				continue
			}
			for _, reg := range s.Node.MDM.CoverageSnapshot() {
				present[reg.Store+"|"+reg.Path] = true
			}
		}
	} else {
		for _, reg := range r.auditMDM().CoverageSnapshot() {
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
	if r.sharded() && r.Spec.AutoRepair {
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
	if r.sharded() {
		r.refreshShardView()
	}
	failures := 0
	probe := func(owner, path string) {
		// directoryFor routes each probe to the owner's home shard on a
		// sharded rig (post-rebalance ring included) and to the audit MDM
		// everywhere else.
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
