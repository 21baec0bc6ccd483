// Command gupsterd runs a GUPster meta-data manager (MDM) server: the
// central, data-less registry of profile coverage and privacy shields that
// resolves client requests into signed referrals (paper §4).
//
// Usage:
//
//	gupsterd -listen 127.0.0.1:7000 -key shared-secret [-cache 1024] [-ttl 30s]
//	         [-provenance 4096] [-data-dir /var/lib/gupster]
//	         [-lease-ttl 10s] [-lease-grace 10s]
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
// With -peers (requires -data-dir) the daemon joins the paper's
// constellation of mirrored servers (§4.2, §5.3 reliability) as a
// quorum-replicated member: one elected leader accepts directory
// mutations and store heartbeats, ships its journal — and, with
// -lease-ttl, its verdict on which stores are quarantined — to the
// followers, and acknowledges only after -replication-quorum members hold
// the record durably. Every member answers resolves from its own replica
// and redirects writes to the leader (clients and stores re-home
// transparently); if the leader dies, a follower takes over within one
// -election-ttl with no acknowledged mutation lost.
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
	"log/slog"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"gupster/internal/core"
	"gupster/internal/dirnode"
	"gupster/internal/health"
	"gupster/internal/overload"
	"gupster/internal/provenance"
	"gupster/internal/replication"
	"gupster/internal/schema"
	"gupster/internal/token"
	"gupster/internal/wire"
)

type repeated []string

func (r *repeated) String() string     { return strings.Join(*r, ",") }
func (r *repeated) Set(s string) error { *r = append(*r, s); return nil }

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
	var replPeers repeated
	flag.Var(&replPeers, "peers", "address of a quorum-replication peer MDM (repeatable; requires -data-dir)")
	replQuorum := flag.Int("replication-quorum", 0, "members (self included) that must hold a mutation durably before acking (0 = majority)")
	advertise := flag.String("advertise", "", "address peers and redirected clients should dial (default: -listen)")
	electionTTL := flag.Duration("election-ttl", 2*time.Second, "leader lease TTL; failover completes within one TTL")
	shardOf := flag.String("shard-of", "", "this node's shard ID in -shard-map (enables shard routing)")
	shardMapFlag := flag.String("shard-map", "", `initial shard map as "id=addr,id=addr,..." (a replicated shard as "id=addr|addr|...", every member; with -shard-of or -router)`)
	shardMapVersion := flag.Uint64("shard-map-version", 1, "version of the -shard-map")
	router := flag.Bool("router", false, "run a data-less shard router over -shard-map instead of an MDM")
	gossipInterval := flag.Duration("gossip-interval", 0, "failure-detector probe interval between shards (0 disables gossip; requires -shard-of)")
	suspectTimeout := flag.Duration("suspect-timeout", 0, "silence after which a suspect shard is confirmed dead (0 = 4x gossip-interval)")
	autoRepair := flag.Bool("auto-repair", false, "repair the shard map on confirmed shard death: evict the dead, promote spares, bump the epoch")
	var spareFlags repeated
	flag.Var(&spareFlags, "spare", `a spare shard outside the map, as "id=addr" or "id=addr|addr|..." (repeatable; the auto-repair promotion pool)`)
	debugAddr := flag.String("debug-addr", "", "serve pprof (mutex and block profiles on) and /debug/stats over HTTP here (empty disables)")
	flag.Parse()

	// Flags → one dirnode.Config. Which layers run, in what order they
	// stack and which combinations are refused is dirnode's knowledge; this
	// function only translates.
	cfg := dirnode.Config{
		MDM: core.Config{
			Schema:        schema.GUP(),
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
		},
		DataDir:   *dataDir,
		ShardID:   *shardOf,
		Router:    *router,
		Listen:    *listen,
		Advertise: *advertise,
		DebugAddr: *debugAddr,
	}
	if *key != "" {
		cfg.MDM.Signer = token.NewSigner([]byte(*key))
	}
	if *ledger > 0 {
		cfg.MDM.Provenance = provenance.NewLedger(*ledger)
	}
	if len(replPeers) > 0 {
		cfg.Replication = &replication.Config{
			Peers: replPeers, Quorum: *replQuorum, TTL: *electionTTL,
		}
	}
	shards, err := wire.ParseShards(*shardMapFlag)
	if err != nil {
		log.Fatalf("gupsterd: -shard-map: %v", err)
	}
	if len(shards) > 0 {
		cfg.ShardMap = wire.ShardMap{Version: *shardMapVersion, Shards: shards}
	}
	if *autoRepair || *gossipInterval > 0 || *suspectTimeout > 0 || len(spareFlags) > 0 {
		// The constellation is the shard map plus every -spare entry.
		spares, err := wire.ParseShards(strings.Join(spareFlags, ","))
		if err != nil {
			log.Fatalf("gupsterd: -spare: %v", err)
		}
		cfg.Gossip = &health.Config{
			Members:        slices.Concat(shards, spares),
			Interval:       *gossipInterval,
			SuspectTimeout: *suspectTimeout,
			AutoRepair:     *autoRepair,
		}
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "gupsterd:", err)
		os.Exit(2)
	}

	node, err := dirnode.Start(cfg)
	if err != nil {
		log.Fatalf("gupsterd: %v", err)
	}
	if rec := node.Recovered; rec != nil {
		snapN := 0
		if rec.Snapshot != nil {
			snapN = len(rec.Snapshot.Coverage) + len(rec.Snapshot.Shields)
		}
		slog.Info("directory recovered", "dir", *dataDir, "entries", snapN, "records", len(rec.Records), "torn_bytes", rec.TornBytes)
	}
	slog.Info("listening", "role", cfg.Role(), "addr", node.Addr())
	if a := node.DebugAddr(); a != "" {
		slog.Info("debug endpoint", "url", "http://"+a+"/debug/")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	slog.Info("shutting down")
	node.Close()
}
