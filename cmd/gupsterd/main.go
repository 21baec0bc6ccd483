// Command gupsterd runs a GUPster meta-data manager (MDM) server: the
// central, data-less registry of profile coverage and privacy shields that
// resolves client requests into signed referrals (paper §4).
//
// Usage:
//
//	gupsterd -listen 127.0.0.1:7000 -key shared-secret [-cache 1024] [-ttl 30s]
//	         [-provenance 4096] [-peer 127.0.0.1:7001 -peer 127.0.0.1:7002]
//	         [-data-dir /var/lib/gupster] [-lease-ttl 10s] [-lease-grace 10s]
//	         [-max-concurrency 64] [-queue-depth 128] [-brownout-threshold 0.8]
//	         [-peers 127.0.0.1:7001 -peers 127.0.0.1:7002 -replication-quorum 2
//	          -advertise 127.0.0.1:7000 -election-ttl 2s]
//
// With -max-concurrency the daemon gates the wire dispatch behind an
// admission controller: at most that many requests execute at once, the
// excess waits in a bounded LIFO queue (-queue-depth, default 2x), and
// overflow is shed with a retry-after hint instead of piling up. With
// -brownout-threshold, sustained pressure above the threshold degrades
// chaining resolves to stale cached answers until pressure recedes.
//
// With -peer flags the daemon joins a mirrored constellation (§5.3
// reliability): coverage registrations and privacy-shield changes replicate
// to the peers, and any mirror can answer any resolve. Peers are kept with
// anti-entropy: a peer that dies and restarts is re-peered and receives
// this mirror's full meta-data snapshot.
//
// With -peers (note the plural; requires -data-dir) the daemon instead
// joins a QUORUM-replicated constellation: one elected leader accepts
// directory mutations, ships its journal to the followers, and
// acknowledges only after -replication-quorum members hold the record
// durably. Followers answer reads and redirect writes to the leader
// (clients re-home transparently); if the leader dies, a follower takes
// over within one -election-ttl with no acknowledged mutation lost.
//
// With -data-dir the meta-data directory is crash-safe: every registration
// and shield rule is journaled (write-ahead log + periodic snapshot) and
// recovered on boot, so a kill -9 loses nothing and no store has to
// re-register. With -lease-ttl stores must heartbeat; one silent past
// TTL+grace is quarantined out of query plans until it comes back.
//
// With -shard-of and -shard-map the daemon serves one shard of a
// partitioned directory: owners hash onto shards through a deterministic
// consistent-hash ring over the map, requests for owners held elsewhere
// are answered with wrong-shard redirects (clients re-route
// transparently), and `gupctl rebalance` moves owner ranges between
// shards live. Each shard may itself be a quorum constellation (-peers).
// With -router the daemon instead runs a data-less front-end that
// forwards every request to the owning shard, so shard-unaware clients
// can keep dialing a single address.
//
// With -gossip-interval the shards probe each other SWIM-style
// (ping, then ping-req through relays) and walk silent members through
// alive → suspect → dead; `gupctl health` prints the view. With
// -auto-repair a confirmed death triggers a self-healing repair: the
// first surviving in-map shard evicts the dead member, promotes -spare
// shards into the gap under an epoch-bumped map, and replays the dead
// slice's coverage from gossiped snapshots. Repair epochs fence
// partitioned minorities: a shard cut off from the majority adopts the
// higher-epoch map the moment it hears of it and drops the owners
// repaired away from it, so a split brain cannot serve stale slices.
//
// Data stores register coverage with `datastored -mdm <addr>`; clients use
// `gupctl -mdm <addr>`.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gupster/internal/core"
	"gupster/internal/dirclient/ring"
	"gupster/internal/federation"
	"gupster/internal/health"
	"gupster/internal/journal"
	"gupster/internal/overload"
	"gupster/internal/provenance"
	"gupster/internal/replication"
	"gupster/internal/schema"
	"gupster/internal/shard"
	"gupster/internal/token"
	"gupster/internal/wire"
)

type repeated []string

func (r *repeated) String() string     { return strings.Join(*r, ",") }
func (r *repeated) Set(s string) error { *r = append(*r, s); return nil }

// parseShardMap decodes "id=addr,id=addr,..." into a versioned shard map.
func parseShardMap(s string, version uint64) (wire.ShardMap, error) {
	m := wire.ShardMap{Version: version}
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, addr, ok := strings.Cut(entry, "=")
		if !ok || id == "" || addr == "" {
			return m, fmt.Errorf(`gupsterd: bad -shard-map entry %q (want "id=addr")`, entry)
		}
		m.Shards = append(m.Shards, wire.ShardInfo{ID: id, Addr: addr})
	}
	if _, err := ring.Build(m); err != nil {
		return m, fmt.Errorf("gupsterd: bad -shard-map: %w", err)
	}
	return m, nil
}

// startGossip wraps a shard node's dispatch in a gossip failure detector
// when -gossip-interval / -auto-repair ask for one, returning the handler
// to serve and a closer. With gossip off both pass through untouched.
// The constellation is the shard map plus every -spare entry; a node
// absent from both (a spare learning the map by install) gossips as
// itself on its advertised address.
func startGossip(sn *shard.Node, selfID, selfAddr string, m wire.ShardMap, spares []string,
	interval, suspectTimeout time.Duration, autoRepair bool) (wire.Handler, func()) {
	if !autoRepair && interval <= 0 && suspectTimeout <= 0 {
		return sn, func() {}
	}
	members := append([]wire.ShardInfo(nil), m.Shards...)
	for _, s := range spares {
		id, addr, ok := strings.Cut(s, "=")
		if !ok || id == "" || addr == "" {
			log.Fatalf(`gupsterd: bad -spare entry %q (want "id=addr")`, s)
		}
		members = append(members, wire.ShardInfo{ID: id, Addr: addr})
	}
	self := wire.ShardInfo{ID: selfID, Addr: selfAddr}
	found := false
	for _, mem := range members {
		if mem.ID == selfID {
			self = mem
			found = true
			break
		}
	}
	if !found {
		members = append(members, self)
	}
	agent := health.New(health.Config{
		Self:    self,
		Members: members,
		Map: func() wire.ShardMap {
			if r := sn.Ring(); r != nil {
				return r.Map()
			}
			return wire.ShardMap{}
		},
		SelfInstall:    sn.Install,
		Interval:       interval,
		SuspectTimeout: suspectTimeout,
		AutoRepair:     autoRepair,
		Logf:           log.Printf,
	})
	agent.Start()
	return health.Wrap(agent, sn), agent.Close
}

func main() {
	listen := flag.String("listen", "127.0.0.1:7000", "address to listen on")
	key := flag.String("key", "", "shared referral-signing key (required)")
	cache := flag.Int("cache", 0, "component cache entries for chaining resolves (0 disables)")
	ttl := flag.Duration("ttl", 30*time.Second, "referral grant time-to-live")
	ledger := flag.Int("provenance", 4096, "disclosure-ledger capacity (0 disables)")
	slow := flag.Duration("slow-threshold", 0, "slow-query trace threshold (0 = default 250ms, negative disables)")
	dataDir := flag.String("data-dir", "", "directory for the meta-data journal (empty = volatile directory)")
	leaseTTL := flag.Duration("lease-ttl", 0, "store lease TTL; stores must heartbeat within it (0 disables leases)")
	leaseGrace := flag.Duration("lease-grace", 0, "extra silence tolerated past lease expiry before quarantine (0 = lease-ttl)")
	maxConc := flag.Int("max-concurrency", 0, "admission control: max concurrently executing requests (0 disables)")
	queueDepth := flag.Int("queue-depth", 0, "admission control: wait-queue depth (0 = 2x max-concurrency)")
	brownout := flag.Float64("brownout-threshold", 0, "pressure fraction that triggers degraded (stale-cache) answers (0 disables)")
	var peers repeated
	flag.Var(&peers, "peer", "address of a peer mirror (repeatable)")
	var replPeers repeated
	flag.Var(&replPeers, "peers", "address of a quorum-replication peer MDM (repeatable; requires -data-dir)")
	replQuorum := flag.Int("replication-quorum", 0, "members (self included) that must hold a mutation durably before acking (0 = majority)")
	advertise := flag.String("advertise", "", "address peers and redirected clients should dial (default: -listen)")
	electionTTL := flag.Duration("election-ttl", 2*time.Second, "leader lease TTL; failover completes within one TTL")
	shardOf := flag.String("shard-of", "", "this node's shard ID in -shard-map (enables shard routing)")
	shardMapFlag := flag.String("shard-map", "", `initial shard map as "id=addr,id=addr,..." (with -shard-of or -router)`)
	shardMapVersion := flag.Uint64("shard-map-version", 1, "version of the -shard-map")
	router := flag.Bool("router", false, "run a data-less shard router over -shard-map instead of an MDM")
	gossipInterval := flag.Duration("gossip-interval", 0, "failure-detector probe interval between shards (0 disables gossip; requires -shard-of)")
	suspectTimeout := flag.Duration("suspect-timeout", 0, "silence after which a suspect shard is confirmed dead (0 = 4x gossip-interval)")
	autoRepair := flag.Bool("auto-repair", false, "repair the shard map on confirmed shard death: evict the dead, promote spares, bump the epoch")
	var spareFlags repeated
	flag.Var(&spareFlags, "spare", `a spare shard outside the map, as "id=addr" (repeatable; the auto-repair promotion pool)`)
	flag.Parse()

	if *router {
		// A router holds no directory state — it needs no key, journal or
		// replication, only the map.
		if *shardMapFlag == "" {
			fmt.Fprintln(os.Stderr, "gupsterd: -router requires -shard-map")
			os.Exit(2)
		}
		m, err := parseShardMap(*shardMapFlag, *shardMapVersion)
		if err != nil {
			log.Fatalf("gupsterd: %v", err)
		}
		rt, err := shard.NewRouter(m, shard.RouterConfig{Logf: log.Printf})
		if err != nil {
			log.Fatalf("gupsterd: %v", err)
		}
		ws, err := wire.Serve(*listen, rt)
		if err != nil {
			log.Fatalf("gupsterd: %v", err)
		}
		log.Printf("gupsterd: shard router listening on %s (map v%d, %d shards)", ws.Addr(), m.Version, len(m.Shards))
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("gupsterd: shutting down")
		ws.Close()
		rt.Close()
		return
	}

	var shardMap wire.ShardMap
	if *shardOf != "" {
		if *shardMapFlag == "" {
			fmt.Fprintln(os.Stderr, "gupsterd: -shard-of requires -shard-map")
			os.Exit(2)
		}
		m, err := parseShardMap(*shardMapFlag, *shardMapVersion)
		if err != nil {
			log.Fatalf("gupsterd: %v", err)
		}
		shardMap = m
	}

	if *key == "" {
		fmt.Fprintln(os.Stderr, "gupsterd: -key is required (shared with data stores)")
		os.Exit(2)
	}
	if len(replPeers) > 0 && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "gupsterd: -peers (quorum replication) requires -data-dir (the journal is the replicated log)")
		os.Exit(2)
	}
	if len(replPeers) > 0 && len(peers) > 0 {
		fmt.Fprintln(os.Stderr, "gupsterd: -peers (quorum replication) and -peer (best-effort mirroring) are mutually exclusive")
		os.Exit(2)
	}
	if *shardOf != "" && len(peers) > 0 {
		fmt.Fprintln(os.Stderr, "gupsterd: -shard-of cannot combine with -peer mirroring (shard a plain or quorum-replicated MDM)")
		os.Exit(2)
	}
	if (*autoRepair || *gossipInterval > 0 || *suspectTimeout > 0 || len(spareFlags) > 0) && *shardOf == "" {
		fmt.Fprintln(os.Stderr, "gupsterd: -auto-repair/-gossip-interval/-suspect-timeout/-spare require -shard-of (gossip runs between directory shards)")
		os.Exit(2)
	}

	cfg := core.Config{
		Schema:        schema.GUP(),
		Signer:        token.NewSigner([]byte(*key)),
		GrantTTL:      *ttl,
		CacheEntries:  *cache,
		Adjuncts:      schema.GUPAdjuncts(),
		SlowThreshold: *slow,
		LeaseTTL:      *leaseTTL,
		LeaseGrace:    *leaseGrace,
		Overload: overload.Config{
			MaxConcurrency:    *maxConc,
			QueueDepth:        *queueDepth,
			BrownoutThreshold: *brownout,
		},
	}
	if *ledger > 0 {
		cfg.Provenance = provenance.NewLedger(*ledger)
	}
	mdm := core.New(cfg)

	// Recover the durable directory before serving: once the listener is
	// up, every registration and shield rule from before the crash is
	// already back.
	if *dataDir != "" {
		rec, err := core.OpenDurable(mdm, *dataDir, journal.Options{})
		if err != nil {
			log.Fatalf("gupsterd: recover %s: %v", *dataDir, err)
		}
		snapN := 0
		if rec.Snapshot != nil {
			snapN = len(rec.Snapshot.Coverage) + len(rec.Snapshot.Shields)
		}
		log.Printf("gupsterd: recovered directory from %s (%d snapshot entries, %d log records, %d torn bytes dropped)",
			*dataDir, snapN, len(rec.Records), rec.TornBytes)
	}

	var closeServer func() error
	if len(replPeers) > 0 {
		// Quorum-replicated constellation: this member ships its journal
		// to followers (or follows a leader), mutations ack only after a
		// quorum holds them durably, and leader failure elects a
		// replacement within one election TTL.
		id := *advertise
		if id == "" {
			id = *listen
		}
		node, err := replication.NewNode(mdm, replication.Config{
			ID:     id,
			Peers:  replPeers,
			Quorum: *replQuorum,
			TTL:    *electionTTL,
			Logf:   log.Printf,
		})
		if err != nil {
			log.Fatalf("gupsterd: %v", err)
		}
		if *shardOf != "" {
			// Shard routing fronts the constellation member: the shard node
			// answers map/install/coverage frames and routes owner-scoped
			// traffic before the replication layer sees it.
			sn := shard.NewNode(shard.NodeConfig{
				ShardID: *shardOf, MDM: mdm,
				Inner: wire.HandlerFunc(node.Handle), Logf: log.Printf,
			})
			if _, err := sn.Install(&wire.ShardInstallRequest{Map: shardMap}); err != nil {
				log.Fatalf("gupsterd: %v", err)
			}
			selfAddr := *advertise
			if selfAddr == "" {
				selfAddr = *listen
			}
			h, stopGossip := startGossip(sn, *shardOf, selfAddr, shardMap, spareFlags,
				*gossipInterval, *suspectTimeout, *autoRepair)
			ln, err := net.Listen("tcp", *listen)
			if err != nil {
				log.Fatalf("gupsterd: %v", err)
			}
			node.StartWith(ln, h)
			closeServer = func() error {
				stopGossip()
				sn.Close()
				return node.Close()
			}
			log.Printf("gupsterd: replicated MDM shard %q listening on %s (map v%d, id=%s, peers=%v, quorum=%d, auto-repair=%v)",
				*shardOf, node.Addr(), shardMap.Version, id, replPeers, *replQuorum, *autoRepair)
		} else {
			if err := node.Start(*listen); err != nil {
				log.Fatalf("gupsterd: %v", err)
			}
			closeServer = node.Close
			log.Printf("gupsterd: replicated MDM listening on %s (id=%s, peers=%v, quorum=%d, election-ttl=%s)",
				node.Addr(), id, replPeers, *replQuorum, *electionTTL)
		}
	} else if len(peers) > 0 {
		mirror := federation.NewMirror(mdm)
		srv, err := mirror.Serve(*listen)
		if err != nil {
			log.Fatalf("gupsterd: %v", err)
		}
		closeServer = srv.Close
		log.Printf("gupsterd: mirror listening on %s (cache=%d, ttl=%s, peers=%v)", srv.Addr(), *cache, *ttl, peers)
		// Anti-entropy peering: late or restarted peers are (re-)peered and
		// resynced from this mirror's snapshot.
		for _, p := range peers {
			mirror.KeepPeer(p, time.Second)
		}
		defer mirror.Close()
	} else if *shardOf != "" {
		srv := core.NewServer(mdm)
		sn := shard.NewNode(shard.NodeConfig{
			ShardID: *shardOf, MDM: mdm,
			Inner: wire.HandlerFunc(srv.Handle), Logf: log.Printf,
		})
		if _, err := sn.Install(&wire.ShardInstallRequest{Map: shardMap}); err != nil {
			log.Fatalf("gupsterd: %v", err)
		}
		selfAddr := *advertise
		if selfAddr == "" {
			selfAddr = *listen
		}
		h, stopGossip := startGossip(sn, *shardOf, selfAddr, shardMap, spareFlags,
			*gossipInterval, *suspectTimeout, *autoRepair)
		ws, err := wire.Serve(*listen, h)
		if err != nil {
			log.Fatalf("gupsterd: %v", err)
		}
		closeServer = func() error {
			stopGossip()
			sn.Close()
			return ws.Close()
		}
		log.Printf("gupsterd: MDM shard %q listening on %s (map v%d, %d shards, cache=%d, ttl=%s, auto-repair=%v)",
			*shardOf, ws.Addr(), shardMap.Version, len(shardMap.Shards), *cache, *ttl, *autoRepair)
	} else {
		srv := core.NewServer(mdm)
		if err := srv.Start(*listen); err != nil {
			log.Fatalf("gupsterd: %v", err)
		}
		closeServer = srv.Close
		log.Printf("gupsterd: MDM listening on %s (cache=%d, ttl=%s)", srv.Addr(), *cache, *ttl)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("gupsterd: shutting down")
	mdm.Close()
	closeServer()
}
