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
	// Registrar heartbeats the coverage (Heartbeats rigs only).
	Registrar *store.Registrar
	// Dead marks a blacked-out store whose registrar has been silenced;
	// a re-registration herd revives it.
	Dead bool
}

// Member is one MDM of a quorum-replicated rig: the directory, its
// replication node (journal shipping + election) and the temp journal
// directory backing it.
type Member struct {
	MDM  *core.MDM
	Node *replication.Node
	Addr string
	Dir  string
	// Killed marks a member whose node was hard-closed mid-run (the
	// leader-kill fault); pollers skip it.
	Killed atomic.Bool
}

// Shard is one directory shard of a sharded rig: an independent MDM
// slice wrapped in a routing shard node, serving the owners the
// installed map's ring assigns to its ID.
type Shard struct {
	ID   string
	MDM  *core.MDM
	Node *shard.Node
	Addr string
	srv  *wire.Server
	// Proxy fronts the shard when the spec declares shard-links; Addr is
	// the proxy address then, and partitions act on it.
	Proxy *faultinject.Proxy
	// Agent is the shard's gossip failure detector (auto-repair rigs).
	Agent *health.Agent
	// Killed marks a shard hard-killed mid-run (KillShard); pollers and
	// the teardown audit skip it.
	Killed atomic.Bool
	// Spare marks a shard built outside the initial map — a rebalance
	// expansion target holding no owners until the map grows onto it.
	Spare bool
}

// Rig is a built topology instance: one MDM fronting a set of stores,
// with fault-injectable links, seeded users and a shared signer. Build
// one from a spec; Close tears it down registrars-first so no goroutine
// outlives it.
//
// With Spec.Replicas >= 2 the MDM side is a quorum-replicated
// constellation instead: Members holds the nodes, MDM points at the
// seed-time leader's directory (for in-process counters) and MDMAddr at
// its address; workload mutations ride a federation.MirrorClient so they
// re-home when leadership moves.
type Rig struct {
	Spec   RigSpec
	Seed   int64
	Signer *token.Signer

	MDM    *core.MDM
	MDMSrv *core.Server
	// MDMProxy fronts the MDM for clients when the spec declares an mdm
	// link; MDMAddr is what clients dial either way.
	MDMProxy *faultinject.Proxy
	MDMAddr  string

	// Members is the replicated constellation (empty on single-MDM rigs).
	Members []*Member

	// Shards is the sharded directory (empty on single-MDM and replicated
	// rigs); shardMap/shardRing track the currently installed map.
	Shards    []*Shard
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
	if spec.Replicas >= 2 {
		if err := r.buildReplicated(); err != nil {
			return err
		}
	} else if spec.Shards >= 2 {
		if err := r.buildSharded(); err != nil {
			return err
		}
	} else {
		r.MDM = core.New(mdmConfig(spec, r.Signer))
		r.MDMSrv = core.NewServer(r.MDM)
		if err := r.MDMSrv.Start("127.0.0.1:0"); err != nil {
			return err
		}
		r.MDMAddr = r.MDMSrv.Addr()
		if spec.Links.MDM != nil {
			p, err := r.newProxy(r.MDMSrv.Addr(), spec.Links.MDM, 0)
			if err != nil {
				return err
			}
			r.MDMProxy = p
			r.MDMAddr = p.Addr()
		}
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

	if spec.Heartbeats {
		for _, node := range r.Stores {
			if err := r.startRegistrar(node); err != nil {
				return err
			}
		}
	}
	return nil
}

// buildReplicated assembles the quorum-replicated MDM constellation:
// Replicas members with temp-dir journals, pre-bound listeners (so every
// member knows its peers' addresses before any starts), and an initial
// election. Seeding then runs through the leader's directory in-process,
// which acks each registration only after a quorum holds it durably.
func (r *Rig) buildReplicated() error {
	spec := &r.Spec
	ttl := spec.ElectionTTL
	if ttl <= 0 {
		ttl = 500 * time.Millisecond
	}
	lns := make([]net.Listener, spec.Replicas)
	addrs := make([]string, spec.Replicas)
	closeRest := func(from int) {
		for i := from; i < len(lns); i++ {
			if lns[i] != nil {
				lns[i].Close()
			}
		}
	}
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeRest(0)
			return err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for i := range lns {
		m := core.New(mdmConfig(spec, r.Signer))
		dir, err := os.MkdirTemp("", "gupster-scenario-*")
		if err != nil {
			m.Close()
			closeRest(i)
			return err
		}
		if _, err := core.OpenDurable(m, dir, journal.Options{NoSync: true}); err != nil {
			m.Close()
			os.RemoveAll(dir)
			closeRest(i)
			return err
		}
		peers := make([]string, 0, len(addrs)-1)
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		node, err := replication.NewNode(m, replication.Config{
			ID: addrs[i], Peers: peers, Quorum: spec.Quorum, TTL: ttl,
		})
		if err != nil {
			m.Close()
			os.RemoveAll(dir)
			closeRest(i)
			return err
		}
		node.StartListener(lns[i])
		r.Members = append(r.Members, &Member{MDM: m, Node: node, Addr: addrs[i], Dir: dir})
	}
	lead := r.WaitLeader(20 * ttl)
	if lead < 0 {
		return fmt.Errorf("replicated rig %s: no leader elected within %s", spec.Name, 20*ttl)
	}
	r.MDM = r.Members[lead].MDM
	r.MDMAddr = r.Members[lead].Addr
	return nil
}

// buildSharded assembles the partitioned directory: Shards+SpareShards
// independent MDM slices, each behind a routing shard node on its own
// listener. The initial map (version 1) covers only the non-spare shards
// and is installed everywhere — spares included, so a spare redirects
// rather than mis-serving until a rebalance grows the map onto it.
// Seeding then registers each owner's coverage at its home shard's MDM
// in-process, exactly as the ring routes it.
func (r *Rig) buildSharded() error {
	spec := &r.Spec
	total := spec.Shards + spec.SpareShards
	// Phase A: build every shard's directory, node, listener and (when the
	// spec declares shard-links) fault proxy, so the full constellation
	// address list is known before anything serves — each gossip agent
	// needs every member's dialable address up front.
	lns := make([]net.Listener, total)
	for i := 0; i < total; i++ {
		m := core.New(mdmConfig(spec, r.Signer))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			m.Close()
			return err
		}
		id := fmt.Sprintf("shard-%d", i)
		sn := shard.NewNode(shard.NodeConfig{
			ShardID: id,
			MDM:     m,
			Inner:   wire.HandlerFunc(core.NewServer(m).Handle),
		})
		sh := &Shard{ID: id, MDM: m, Node: sn, Addr: ln.Addr().String(), Spare: i >= spec.Shards}
		if spec.ShardLinks != nil {
			p, err := r.newProxy(ln.Addr().String(), spec.ShardLinks, 100+i)
			if err != nil {
				ln.Close()
				sn.Close()
				m.Close()
				return err
			}
			sh.Proxy = p
			sh.Addr = p.Addr()
		}
		lns[i] = ln
		r.Shards = append(r.Shards, sh)
	}
	// Phase B: serve each shard, wrapping its dispatch in a gossip agent
	// on auto-repair rigs. Members cover the whole constellation (spares
	// included — they are the promotion pool), addressed through the
	// proxies so a partition severs gossip and repair traffic alike.
	infos := make([]wire.ShardInfo, total)
	for i, s := range r.Shards {
		infos[i] = wire.ShardInfo{ID: s.ID, Addr: s.Addr}
	}
	for i, s := range r.Shards {
		var h wire.Handler = s.Node
		if spec.AutoRepair {
			sn := s.Node
			s.Agent = health.New(health.Config{
				Self:    infos[i],
				Members: infos,
				Map: func() wire.ShardMap {
					if ring := sn.Ring(); ring != nil {
						return ring.Map()
					}
					return wire.ShardMap{}
				},
				SelfInstall:    sn.Install,
				Interval:       spec.GossipInterval,
				SuspectTimeout: spec.SuspectTimeout,
				AutoRepair:     true,
				ForwardMillis:  300,
				OnRepair:       r.recordRepair,
			})
			h = health.Wrap(s.Agent, s.Node)
		}
		s.srv = wire.ServeListener(lns[i], h)
	}
	initial := wire.ShardMap{Version: 1}
	for _, s := range r.Shards[:spec.Shards] {
		initial.Shards = append(initial.Shards, wire.ShardInfo{ID: s.ID, Addr: s.Addr})
	}
	ring, err := ring.Build(initial)
	if err != nil {
		return err
	}
	for _, s := range r.Shards {
		if _, err := s.Node.Install(&wire.ShardInstallRequest{Map: initial}); err != nil {
			return err
		}
	}
	r.shardMap, r.shardRing = initial, ring
	// The first shard stands in as "the MDM" for pipeline counters and as
	// the seed address shard-aware clients bootstrap from.
	r.MDM = r.Shards[0].MDM
	r.MDMAddr = r.Shards[0].Addr
	// Agents start only after the initial map is everywhere, so the first
	// probe rounds gossip real coordinates.
	if spec.AutoRepair {
		for _, s := range r.Shards {
			s.Agent.Start()
		}
	}
	return nil
}

// directoryFor returns the MDM holding an owner's directory slice: the
// owner's home shard under the current ring, or the audit MDM on
// unsharded rigs.
func (r *Rig) directoryFor(owner string) *core.MDM {
	if len(r.Shards) == 0 {
		return r.auditMDM()
	}
	r.shardMu.Lock()
	ring := r.shardRing
	r.shardMu.Unlock()
	home := ring.Owner(owner)
	for _, s := range r.Shards {
		if s.ID == home.ID {
			return s.MDM
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
	for _, s := range r.Shards {
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
	for _, s := range r.Shards {
		if s.Killed.Load() {
			continue
		}
		if ring := s.Node.Ring(); ring != nil {
			return ring.Map().Epoch
		}
	}
	return 0
}

// refreshShardView re-reads the installed map from a live shard, so
// directoryFor and the audit probes route by the post-repair ring rather
// than the map the rig installed at build time.
func (r *Rig) refreshShardView() {
	for _, s := range r.Shards {
		if s.Killed.Load() {
			continue
		}
		cur := s.Node.Ring()
		if cur == nil {
			continue
		}
		m := cur.Map()
		r.shardMu.Lock()
		if ring.Compare(m, r.shardMap) > 0 {
			r.shardMap, r.shardRing = m, cur
		}
		r.shardMu.Unlock()
		return
	}
}

// KillShard hard-kills the named shard: its gossip agent, wire server and
// fault proxy all go down, so peer dials are refused — the in-process
// analog of a machine loss. Reports whether a live shard was killed.
func (r *Rig) KillShard(id string) bool {
	for _, s := range r.Shards {
		if s.ID != id || s.Killed.Load() {
			continue
		}
		s.Killed.Store(true)
		if s.Agent != nil {
			s.Agent.Close()
		}
		s.srv.Close()
		if s.Proxy != nil {
			s.Proxy.Close()
		}
		return true
	}
	return false
}

// PartitionShard imposes (on=true) or heals the one-way partition on the
// named shard's proxy: inbound requests still land, but its replies
// vanish — the shard can hear and not be heard.
func (r *Rig) PartitionShard(id string, on bool) bool {
	for _, s := range r.Shards {
		if s.ID == id && s.Proxy != nil && !s.Killed.Load() {
			s.Proxy.PartitionOneWay(on)
			return true
		}
	}
	return false
}

// Leader returns the index of the live member currently reporting
// itself leader, or -1 mid-election.
func (r *Rig) Leader() int {
	for i, mem := range r.Members {
		if mem.Killed.Load() {
			continue
		}
		if st := mem.Node.Status(); st.Role == "leader" {
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
// election loop — the in-process analog of kill -9) and returns its
// index, or -1 when no member holds the lease right now.
func (r *Rig) KillLeader() int {
	i := r.Leader()
	if i < 0 {
		return -1
	}
	r.Members[i].Killed.Store(true)
	r.Members[i].Node.Close()
	return i
}

// MemberAddrs lists every constellation address (single-MDM rigs: just
// MDMAddr) — the MirrorClient seed list.
func (r *Rig) MemberAddrs() []string {
	if len(r.Members) == 0 {
		return []string{r.MDMAddr}
	}
	addrs := make([]string, len(r.Members))
	for i, mem := range r.Members {
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
	if len(r.Members) == 0 {
		return r.MDM
	}
	if i := r.Leader(); i >= 0 {
		return r.Members[i].MDM
	}
	for _, mem := range r.Members {
		if !mem.Killed.Load() {
			return mem.MDM
		}
	}
	return r.Members[0].MDM
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

// storeLink resolves the link spec for store i: the per-store override,
// else the default, else nil (bare TCP).
func (r *Rig) storeLink(i int) *LinkSpec {
	if l, ok := r.Spec.Links.PerStore[fmt.Sprintf("store-%d", i)]; ok {
		return l
	}
	return r.Spec.Links.Stores
}

func (r *Rig) buildStore(i int) (*StoreNode, error) {
	eng := store.NewEngine(fmt.Sprintf("store-%d", i))
	srv := store.NewServer(eng, r.Signer)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	node := &StoreNode{Index: i, Engine: eng, Server: srv, Addr: srv.Addr()}
	if l := r.storeLink(i); l != nil {
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
	if len(r.Shards) > 0 {
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
// silences it explicitly (see SilenceStore).
func (r *Rig) startRegistrar(node *StoreNode) error {
	reg := store.NewRegistrar(store.RegistrarConfig{
		Store:    node.Engine.ID(),
		Addr:     node.Addr,
		MDM:      r.MDMSrv.Addr(),
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

// SilenceStore blacks out a store: the link goes dark and the registrar
// stops, so the store neither serves nor renews its lease — the MDM's
// lease machinery quarantines it after TTL+grace.
func (r *Rig) SilenceStore(i int) {
	node := r.Stores[i]
	if node.Proxy != nil {
		node.Proxy.Blackout(true)
	}
	if node.Registrar != nil {
		node.Registrar.Close()
		node.Registrar = nil
	}
	node.Dead = true
}

// RestoreStore lifts a store's blackout. Heartbeats do not resume —
// that is what a re-registration herd (ReviveStore) is for, mirroring a
// real store process restarting.
func (r *Rig) RestoreStore(i int) {
	if node := r.Stores[i]; node.Proxy != nil {
		node.Proxy.Blackout(false)
	}
}

// ReviveStore re-registers a dead store's whole coverage and resumes
// heartbeats — one member of the thundering herd.
func (r *Rig) ReviveStore(ctx context.Context, i int) error {
	node := r.Stores[i]
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
	if len(r.Members) == 0 && len(r.Shards) == 0 && len(acked) == 0 {
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
	if len(r.Shards) > 0 {
		for _, s := range r.Shards {
			if s.Killed.Load() {
				continue
			}
			for _, reg := range s.MDM.CoverageSnapshot() {
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
	if len(r.Shards) > 0 && r.Spec.AutoRepair {
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
	for _, s := range r.Shards {
		if s.Killed.Load() {
			continue
		}
		if ring := s.Node.Ring(); ring != nil {
			m := ring.Map()
			coords[[2]uint64{m.Epoch, m.Version}] = true
		}
		for _, reg := range s.MDM.CoverageSnapshot() {
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
// heartbeat traffic), then the client-facing proxy and the MDM (stop
// request traffic, close pooled store connections), then the store
// proxies and servers. Every component's Close blocks until its
// goroutines exit, so a closed rig leaks nothing.
func (r *Rig) Close() {
	for _, node := range r.Stores {
		if node.Registrar != nil {
			node.Registrar.Close()
			node.Registrar = nil
		}
	}
	if r.MDMProxy != nil {
		r.MDMProxy.Close()
	}
	if r.MDMSrv != nil {
		r.MDMSrv.Close()
	}
	// Replicated members own their MDMs (r.MDM aliases the leader's);
	// close nodes first so no shipper is mid-append when the journals go.
	for _, mem := range r.Members {
		mem.Node.Close()
	}
	for _, mem := range r.Members {
		mem.MDM.Close()
		os.RemoveAll(mem.Dir)
	}
	// Shards own their MDMs (r.MDM aliases the first shard's); stop the
	// gossip agents first (no repair mid-teardown), then the wire servers
	// and proxies, then the routing nodes' forwarding connections and
	// drain timers, then the directories themselves.
	for _, s := range r.Shards {
		if s.Agent != nil {
			s.Agent.Close()
		}
	}
	for _, s := range r.Shards {
		if s.srv != nil {
			s.srv.Close()
		}
		if s.Proxy != nil {
			s.Proxy.Close()
		}
	}
	for _, s := range r.Shards {
		s.Node.Close()
		s.MDM.Close()
	}
	if r.MDM != nil && len(r.Members) == 0 && len(r.Shards) == 0 {
		r.MDM.Close()
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
	if len(r.Shards) > 0 {
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
