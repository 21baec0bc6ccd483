// Package health is the shard constellation's self-awareness layer: a
// gossip-style failure detector (SWIM-shaped direct ping plus indirect
// ping-req, with a suspicion state machine) running between shard nodes,
// and an epoch-fenced repair planner that turns a confirmed shard death
// into an automatic three-phase rebalance onto a spare or across the
// survivors.
//
// Two design points carry the correctness weight:
//
//   - Only a delivered ack refutes suspicion. Receiving a probe proves the
//     peer's inbound path works, but a node that can hear and not be heard
//     is unavailable to every client — the request→reply round trip is the
//     availability-relevant path, and it is exactly what a probe measures.
//
//   - Every repair bumps the shard map's epoch, and every map carrier
//     (node installs, router adoption, client adoption) orders maps by
//     (epoch, version). A partitioned minority that still believes in the
//     old map is fenced by ordinary install rejection instead of
//     split-braining the namespace, and learns the winning map through the
//     (epoch, version) pair piggybacked on every ping and ack.
package health

import (
	"context"
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"sync"
	"time"

	"gupster/internal/dirclient/ring"
	"gupster/internal/wire"
)

// State is a member's position in the suspicion state machine.
type State int

const (
	StateAlive State = iota
	StateSuspect
	StateDead
)

func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Config parameterizes an Agent.
type Config struct {
	// Self is this node's identity and dialable address.
	Self wire.ShardInfo
	// Members is the full constellation — every node that gossips,
	// including Self and spares. Spares are derived, not declared: a member
	// the current map does not name is promotion-eligible.
	Members []wire.ShardInfo
	// Map returns the node's currently installed shard map (zero value
	// when none is installed yet).
	Map func() wire.ShardMap
	// SelfInstall installs a map on the local node directly, bypassing the
	// wire. The agent uses it for anti-entropy self-fencing: a node behind
	// an asymmetric partition can learn a newer epoch (its outbound path
	// works) but could never complete a round trip through its own
	// published address.
	SelfInstall func(*wire.ShardInstallRequest) (*wire.ShardInstallResponse, error)
	// Interval is the probe period; every tick probes every member, and it
	// bounds one direct or relayed probe. 0 means 250ms.
	Interval time.Duration
	// SuspectTimeout is how long a member stays suspect before it is
	// confirmed dead. 0 means 4×Interval.
	SuspectTimeout time.Duration
	// AutoRepair arms the repair planner. Off, the agent only observes.
	AutoRepair bool
	// Dial overrides the connection factory (tests simulate partial
	// partitions with it). Nil means wire.DialContext.
	Dial func(ctx context.Context, addr string) (*wire.Client, error)
}

// relays is how many alive members are asked to ping-req a directly
// unreachable target before it is counted missed.
const relays = 2

// memberView is the detector's bookkeeping for one peer.
type memberView struct {
	info     wire.ShardInfo
	state    State
	since    time.Time
	probing  bool   // a probe for this member is in flight this tick
	answered string // the replica address that last answered
	snapshot *wire.ShardCoverageResponse
}

// Agent runs the failure detector and (when armed) the repair planner for
// one shard node.
type Agent struct {
	cfg Config

	// conns carries gossip, map fetches and coverage snapshots to the
	// other members.
	conns wire.Pool

	mu       sync.Mutex
	members  map[string]*memberView // by ID, Self excluded
	fetching bool                   // anti-entropy map fetch in flight
	repair   bool                   // repair in flight
	closed   bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// New builds an agent; Start arms it.
func New(cfg Config) *Agent {
	if cfg.Interval <= 0 {
		cfg.Interval = 250 * time.Millisecond
	}
	if cfg.SuspectTimeout <= 0 {
		cfg.SuspectTimeout = 4 * cfg.Interval
	}
	a := &Agent{
		cfg:     cfg,
		members: make(map[string]*memberView),
		stop:    make(chan struct{}),
	}
	a.conns.Dial = cfg.Dial
	now := time.Now()
	for _, m := range cfg.Members {
		if m.ID == cfg.Self.ID {
			continue
		}
		a.members[m.ID] = &memberView{info: m, state: StateAlive, since: now}
	}
	return a
}

// Start launches the gossip and snapshot loops.
func (a *Agent) Start() {
	a.wg.Add(2)
	go a.gossipLoop()
	go a.snapshotLoop()
}

// Close stops the loops and releases connections.
func (a *Agent) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	a.mu.Unlock()
	close(a.stop)
	a.wg.Wait()
	a.conns.Close()
}

// StateOf reports the agent's view of one member (Self is always alive).
func (a *Agent) StateOf(id string) State {
	if id == a.cfg.Self.ID {
		return StateAlive
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if v, ok := a.members[id]; ok {
		return v.state
	}
	return StateDead
}

// Membership dumps the agent's view for TypeMembership / gupctl.
func (a *Agent) Membership() wire.MembershipResponse {
	m := a.currentMap()
	inMap := make(map[string]bool, len(m.Shards))
	for _, s := range m.Shards {
		inMap[s.ID] = true
	}
	resp := wire.MembershipResponse{
		Self:       a.cfg.Self.ID,
		MapEpoch:   m.Epoch,
		MapVersion: m.Version,
		AutoRepair: a.cfg.AutoRepair,
	}
	now := time.Now()
	resp.Members = append(resp.Members, wire.MemberHealth{
		ID: a.cfg.Self.ID, Addr: a.cfg.Self.Addr, State: StateAlive.String(),
		Spare: len(m.Shards) > 0 && !inMap[a.cfg.Self.ID],
	})
	a.mu.Lock()
	ids := make([]string, 0, len(a.members))
	for id := range a.members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		v := a.members[id]
		resp.Members = append(resp.Members, wire.MemberHealth{
			ID: id, Addr: v.info.Addr, State: v.state.String(),
			SinceMillis: now.Sub(v.since).Milliseconds(),
			Spare:       len(m.Shards) > 0 && !inMap[id],
		})
	}
	a.mu.Unlock()
	return resp
}

func (a *Agent) currentMap() wire.ShardMap {
	if a.cfg.Map == nil {
		return wire.ShardMap{}
	}
	return a.cfg.Map()
}

func (a *Agent) gossipLoop() {
	defer a.wg.Done()
	t := time.NewTicker(a.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-t.C:
		}
		a.tick()
	}
}

// tick probes every member not already being probed, then (when armed)
// considers repair. The constellation is small (single-digit shards), so
// probing everyone each interval costs a handful of tiny frames and buys
// detection latency independent of gossip fan-out luck.
func (a *Agent) tick() {
	a.mu.Lock()
	targets := make([]*memberView, 0, len(a.members))
	for _, v := range a.members {
		if v.probing {
			continue
		}
		v.probing = true
		targets = append(targets, v)
	}
	a.mu.Unlock()
	var wg sync.WaitGroup
	for _, v := range targets {
		wg.Add(1)
		go func(v *memberView) {
			defer wg.Done()
			a.probe(v.info)
			a.mu.Lock()
			v.probing = false
			a.mu.Unlock()
		}(v)
	}
	wg.Wait()
	if a.cfg.AutoRepair {
		a.maybeRepair()
	}
}

// probe runs one failure-detection round for a member: a direct ping,
// then — on failure — ping-reqs through up to relays other alive members.
// Any delivered ack refutes; a fully failed round is a miss.
func (a *Agent) probe(target wire.ShardInfo) {
	if ack, err := a.ping(target.ID, target.Addr, a.cfg.Interval); err == nil {
		a.observeAck(target.ID, ack)
		return
	}
	for _, relay := range a.relaysFor(target.ID) {
		if ack, err := a.pingReq(relay, target); err == nil {
			a.observeAck(target.ID, ack)
			return
		}
	}
	a.observeMiss(target.ID)
}

// relaysFor picks up to relays alive members other than the
// target, in sorted ID order so runs are deterministic.
func (a *Agent) relaysFor(targetID string) []wire.ShardInfo {
	a.mu.Lock()
	defer a.mu.Unlock()
	ids := make([]string, 0, len(a.members))
	for id, v := range a.members {
		if id != targetID && v.state == StateAlive {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	if len(ids) > relays {
		ids = ids[:relays]
	}
	out := make([]wire.ShardInfo, 0, len(ids))
	for _, id := range ids {
		out = append(out, a.members[id].info)
	}
	return out
}

// call sends one request to shard id (at fallback when the agent does not
// know the shard) and decodes the reply into resp. The gossip identity is
// the shard, not the replica: a quorum-replicated shard is alive while any
// member answers, and which member leads is the election's business. So
// the members are tried in turn — the one that last answered first, then
// Addr, then the rest — each under a timeout of its own, so a dead replica
// costs one timeout, not the shard.
func (a *Agent) call(id, fallback string, timeout time.Duration, msgType string, req, resp any) error {
	a.mu.Lock()
	addrs := []string{fallback}
	if v, ok := a.members[id]; ok {
		addrs = append([]string{v.answered, v.info.Addr}, v.info.Members...)
	}
	a.mu.Unlock()
	err := fmt.Errorf("health: no address for member %s", id)
	for i, addr := range addrs {
		if addr == "" || slices.Contains(addrs[:i], addr) {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		err = a.conns.Call(ctx, addr, msgType, req, resp)
		cancel()
		if err == nil {
			a.mu.Lock()
			if v, ok := a.members[id]; ok {
				v.answered = addr
			}
			a.mu.Unlock()
			return nil
		}
	}
	return err
}

// ping sends one direct probe to a member (at addr when unknown) and
// returns its ack.
func (a *Agent) ping(id, addr string, timeout time.Duration) (*wire.GossipAck, error) {
	m := a.currentMap()
	req := wire.GossipPing{
		FromID: a.cfg.Self.ID, FromAddr: a.cfg.Self.Addr,
		MapEpoch: m.Epoch, MapVersion: m.Version,
	}
	var ack wire.GossipAck
	if err := a.call(id, addr, timeout, wire.TypeGossipPing, &req, &ack); err != nil {
		return nil, err
	}
	return &ack, nil
}

// pingReq asks relay to probe target on our behalf; the reply is the
// target's own ack, relayed.
func (a *Agent) pingReq(relay, target wire.ShardInfo) (*wire.GossipAck, error) {
	req := wire.GossipPingReq{
		FromID: a.cfg.Self.ID, TargetID: target.ID, TargetAddr: target.Addr,
		TimeoutMillis: a.cfg.Interval.Milliseconds(),
	}
	// The relay needs its own probe window on top of ours.
	ctx, cancel := context.WithTimeout(context.Background(), 2*a.cfg.Interval)
	defer cancel()
	var ack wire.GossipAck
	if err := a.conns.Call(ctx, relay.Addr, wire.TypeGossipPingReq, &req, &ack); err != nil {
		return nil, err
	}
	return &ack, nil
}

// observeAck refutes any suspicion of the member and learns the map
// coordinates the ack piggybacked.
func (a *Agent) observeAck(id string, ack *wire.GossipAck) {
	a.mu.Lock()
	v, known := a.members[id]
	if known && v.state != StateAlive {
		slog.Info("peer alive", "shard", a.cfg.Self.ID, "peer", id, "was", v.state.String())
		v.state = StateAlive
		v.since = time.Now()
	}
	a.mu.Unlock()
	if known {
		a.learnMap(ack.MapEpoch, ack.MapVersion, id, "")
	}
}

// observeMiss advances the member one step down the suspicion machine.
func (a *Agent) observeMiss(id string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	v, ok := a.members[id]
	if !ok {
		return
	}
	now := time.Now()
	switch v.state {
	case StateAlive:
		v.state = StateSuspect
		v.since = now
		slog.Info("peer suspect", "shard", a.cfg.Self.ID, "peer", id)
	case StateSuspect:
		if now.Sub(v.since) >= a.cfg.SuspectTimeout {
			v.state = StateDead
			v.since = now
			slog.Info("peer dead", "shard", a.cfg.Self.ID, "peer", id)
		}
	}
}

// learnMap triggers anti-entropy when a peer advertises newer map
// coordinates than ours: fetch its map (from fromAddr when the agent does
// not know fromID) and self-fence onto it.
func (a *Agent) learnMap(epoch, version uint64, fromID, fromAddr string) {
	if a.cfg.SelfInstall == nil {
		return
	}
	cur := a.currentMap()
	if ring.Compare(wire.ShardMap{Epoch: epoch, Version: version}, cur) <= 0 {
		return
	}
	a.mu.Lock()
	if a.fetching || a.closed {
		a.mu.Unlock()
		return
	}
	a.fetching = true
	a.mu.Unlock()
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		defer func() {
			a.mu.Lock()
			a.fetching = false
			a.mu.Unlock()
		}()
		var m wire.ShardMap
		if err := a.call(fromID, fromAddr, 2*a.cfg.Interval, wire.TypeShardMap, wire.Empty{}, &m); err != nil {
			return
		}
		if ring.Compare(m, a.currentMap()) <= 0 {
			return
		}
		// Fence mode — adopt and immediately drop every owner the new map
		// assigns elsewhere — is only for a node the new map EVICTED: it
		// may be a partitioned minority still serving a slice the majority
		// repaired away. A member the new map retains adopts outright
		// instead; its moved owners are the repair rebalance's to dump,
		// replay and fence, and fencing them here would destroy coverage
		// before the rebalance could copy it out. The install bypasses the
		// wire — a node behind an asymmetric partition could never answer
		// itself.
		mode := "fence"
		for _, s := range m.Shards {
			if s.ID == a.cfg.Self.ID {
				mode = ""
				break
			}
		}
		if _, err := a.cfg.SelfInstall(&wire.ShardInstallRequest{Map: m, Mode: mode}); err != nil {
			slog.Warn("self-install refused", "shard", a.cfg.Self.ID, "version", m.Version, "epoch", m.Epoch, "mode", mode, "err", err)
			return
		}
		slog.Info("map learned", "shard", a.cfg.Self.ID, "version", m.Version, "epoch", m.Epoch, "mode", mode)
	}()
}

// answerPing answers a direct probe: ack with our map coordinates, and
// learn the sender's. Receiving a ping deliberately does NOT mark the
// sender alive — its inbound path provably works, but clients need its
// replies, and only its acks witness those.
func (a *Agent) answerPing(_ context.Context, req *wire.GossipPing) (wire.GossipAck, error) {
	cur := a.currentMap()
	a.learnMap(req.MapEpoch, req.MapVersion, req.FromID, req.FromAddr)
	return wire.GossipAck{FromID: a.cfg.Self.ID, MapEpoch: cur.Epoch, MapVersion: cur.Version}, nil
}

// handlePingReq probes the named target on the requester's behalf — every
// member of it the relay knows by ID, TargetAddr otherwise — and relays
// the target's ack. It is a raw handler because the answer comes from its
// own goroutine: handlers are sequential per connection and a relay
// blocking for a ping timeout must not stall the requester's other gossip
// frames.
func (a *Agent) handlePingReq(c *wire.ServerConn, m *wire.Message, req *wire.GossipPingReq) {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		_ = c.ReplyError(m, fmt.Errorf("health: agent closed"))
		return
	}
	a.wg.Add(1)
	a.mu.Unlock()
	go func() {
		defer a.wg.Done()
		timeout := time.Duration(req.TimeoutMillis) * time.Millisecond
		if timeout <= 0 {
			timeout = a.cfg.Interval
		}
		ack, err := a.ping(req.TargetID, req.TargetAddr, timeout)
		if err != nil {
			_ = c.ReplyError(m, fmt.Errorf("health: indirect probe of %s failed: %w", req.TargetID, err))
			return
		}
		// The relay witnessed the round trip itself: free refutation.
		a.observeAck(req.TargetID, ack)
		_ = c.Reply(m, *ack)
	}()
}

// Wrap composes the agent's gossip handling in front of a shard node's
// dispatch: gossip frames are intercepted, everything else falls through,
// and internal/shard stays ignorant of the health layer.
func Wrap(a *Agent, inner wire.Handler) wire.Handler {
	x := &wire.Mux{Fallback: inner}
	wire.Route(x, wire.TypeGossipPing, a.answerPing)
	wire.Handle(x, wire.TypeGossipPingReq, a.handlePingReq)
	wire.Route(x, wire.TypeMembership, func(context.Context, *wire.Empty) (wire.MembershipResponse, error) {
		return a.Membership(), nil
	})
	return x
}

// snapshotLoop caches coverage snapshots of alive in-map members on a slow
// cadence, so a repair can replay a dead shard's slice without its
// cooperation. The snapshot is as fresh as the last pull; E23-style
// resolve storms mutate nothing, so the replay there is exact, and under
// mutation load the staleness window is one snapshot interval.
func (a *Agent) snapshotLoop() {
	defer a.wg.Done()
	t := time.NewTicker(5 * a.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-t.C:
		}
		cur := a.currentMap()
		for _, s := range cur.Shards {
			if s.ID == a.cfg.Self.ID || a.StateOf(s.ID) != StateAlive {
				continue
			}
			var snap wire.ShardCoverageResponse
			if err := a.call(s.ID, s.Addr, 4*a.cfg.Interval, wire.TypeShardCoverage, wire.Empty{}, &snap); err != nil {
				continue
			}
			a.mu.Lock()
			if v, ok := a.members[s.ID]; ok {
				v.snapshot = &snap
			}
			a.mu.Unlock()
		}
	}
}
