// Command gupctl is the GUPster command-line client: resolve, fetch and
// update profile components, provision privacy-shield rules, subscribe to
// changes, and inspect MDM statistics.
//
// Usage:
//
//	gupctl -mdm 127.0.0.1:7000 -as alice [-role self] <command> [args]
//
// Commands:
//
//	get <path>                         fetch via referral and print XML
//	get-via <pattern> <path>           fetch via chaining|recruiting
//	resolve <path>                     print the referral plan
//	update <path> <file.xml|->         write a component
//	put-rule <owner> <id> <effect> <path> [cond]   provision a shield rule
//	delete-rule <owner> <id>           remove a shield rule
//	subscribe <path>                   stream change notifications
//	provenance                         print my disclosure ledger
//	provenance-summary                 per-requester disclosure rollup
//	stats                              print MDM counters
//	health                             print the shard's gossip membership view, or the store-liveness lease table
//	replication                        print quorum-replication role and peer lag
//	trace <trace-id>                   render a request's span tree
//	slow [n]                           print recent slow-query traces
//	shard-map                          print the directory's shard map
//	rebalance <id=addr,...>            move the directory onto a new shard map live
//	                                   (a replicated shard as id=addr|addr|...)
//
// get, get-via and update run traced: the request's trace ID is printed to
// stderr ("trace <id>") so it can be fed to `gupctl trace`.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"gupster/internal/core"
	"gupster/internal/policy"
	"gupster/internal/shard"
	"gupster/internal/token"
	"gupster/internal/trace"
	"gupster/internal/wire"
	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

func main() {
	mdmAddr := flag.String("mdm", "127.0.0.1:7000", "MDM address")
	identity := flag.String("as", "", "requester identity (required)")
	role := flag.String("role", "self", "asserted role (self, family, co-worker, …)")
	flag.Parse()

	if *identity == "" || flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	cli, err := core.DialMDM(*mdmAddr, *identity, *role)
	if err != nil {
		log.Fatalf("gupctl: %v", err)
	}
	defer cli.Close()

	ctx := context.Background()
	args := flag.Args()
	switch cmd := args[0]; cmd {
	case "get":
		need(args, 2, "get <path>")
		tctx, id, finish := cli.NewTrace(ctx, "gupctl.get")
		doc, err := cli.Get(tctx, args[1])
		finish(err)
		fatal(err)
		printDoc(doc)
		traceID(id)
	case "get-via":
		need(args, 3, "get-via <chaining|recruiting> <path>")
		tctx, id, finish := cli.NewTrace(ctx, "gupctl.get-via")
		doc, err := cli.GetVia(tctx, args[2], wire.QueryPattern(args[1]))
		finish(err)
		fatal(err)
		printDoc(doc)
		traceID(id)
	case "resolve":
		need(args, 2, "resolve <path>")
		resp, err := cli.Resolve(ctx, &wire.ResolveRequest{
			Path:    args[1],
			Context: policy.Context{Requester: *identity, Role: *role, Purpose: policy.PurposeQuery},
			Verb:    token.VerbFetch,
		})
		fatal(err)
		for i, alt := range resp.Alternatives {
			fmt.Printf("alternative %d (merge=%q):\n", i+1, alt.Merge)
			for _, ref := range alt.Referrals {
				fmt.Printf("  %s  @%s (%s)\n", ref.Query.Redact(), ref.Query.Store, ref.Address)
			}
		}
	case "update":
		need(args, 3, "update <path> <file.xml|->")
		var data []byte
		if args[2] == "-" {
			data, err = io.ReadAll(os.Stdin)
		} else {
			data, err = os.ReadFile(args[2])
		}
		fatal(err)
		frag, err := xmltree.ParseString(string(data))
		fatal(err)
		tctx, id, finish := cli.NewTrace(ctx, "gupctl.update")
		n, err := cli.Update(tctx, args[1], frag)
		finish(err)
		fatal(err)
		fmt.Printf("updated %d store(s)\n", n)
		traceID(id)
	case "put-rule":
		need(args, 5, "put-rule <owner> <id> <permit|deny> <path> [cond]")
		cond := ""
		if len(args) > 5 {
			cond = args[5]
		}
		parsedCond, err := policy.ParseCond(cond)
		fatal(err)
		p, err := xpath.Parse(args[4])
		fatal(err)
		effect := policy.Deny
		if args[3] == "permit" {
			effect = policy.Permit
		}
		fatal(cli.PutRule(ctx, args[1], policy.Rule{
			ID: args[2], Path: p, Cond: parsedCond, Effect: effect,
		}))
		fmt.Println("rule provisioned")
	case "delete-rule":
		need(args, 3, "delete-rule <owner> <id>")
		fatal(cli.DeleteRule(ctx, args[1], args[2]))
		fmt.Println("rule deleted")
	case "subscribe":
		need(args, 2, "subscribe <path>")
		id, err := cli.Subscribe(ctx, args[1], func(n wire.Notification) {
			fmt.Printf("--- change at %s (v%d):\n%s\n", n.Path, n.Version, n.XML)
		})
		fatal(err)
		fmt.Printf("subscribed (id %d); waiting for notifications, Ctrl-C to stop\n", id)
		select {} // stream until interrupted
	case "provenance":
		recs, err := cli.Provenance(ctx, 0)
		fatal(err)
		if len(recs) == 0 {
			fmt.Println("(no disclosure records)")
			return
		}
		for _, r := range recs {
			fmt.Printf("#%d %s %s %s %s by %s", r.Seq, time.Unix(r.TimeUnix, 0).Format(time.RFC3339),
				r.Outcome, r.Verb, r.Path, r.Requester)
			if r.RuleID != "" {
				fmt.Printf(" (rule %s)", r.RuleID)
			}
			if len(r.Stores) > 0 {
				fmt.Printf(" served by %v", r.Stores)
			}
			fmt.Println()
		}
	case "provenance-summary":
		sums, err := cli.ProvenanceSummary(ctx)
		fatal(err)
		if len(sums) == 0 {
			fmt.Println("(no disclosures)")
			return
		}
		for _, s := range sums {
			fmt.Printf("%-16s grants=%d denials=%d last=%s paths=%v\n",
				s.Requester, s.Grants, s.Denials, time.Unix(s.LastUnix, 0).Format(time.RFC3339), s.Paths)
		}
	case "stats":
		st, err := cli.Stats(ctx)
		fatal(err)
		fmt.Printf("resolves:      %d\n", st.Resolves)
		fmt.Printf("denied:        %d\n", st.Denied)
		fmt.Printf("spurious:      %d\n", st.Spurious)
		fmt.Printf("cache hits:    %d\n", st.CacheHits)
		fmt.Printf("cache misses:  %d\n", st.CacheMisses)
		fmt.Printf("registrations: %d\n", st.Registrations)
		fmt.Printf("subscriptions: %d\n", st.Subscriptions)
		fmt.Printf("bytes proxied: %d\n", st.BytesProxied)
		fmt.Printf("retries:       %d\n", st.Retries)
		fmt.Printf("breaker trips: %d\n", st.BreakerTrips)
		fmt.Printf("short circuits: %d\n", st.ShortCircuits)
		fmt.Printf("flights:       %d\n", st.Flights)
		fmt.Printf("coalesce hits: %d", st.CoalesceHits)
		if st.Flights+st.CoalesceHits > 0 {
			fmt.Printf(" (%.0f%% hit rate)", 100*float64(st.CoalesceHits)/float64(st.Flights+st.CoalesceHits))
		}
		fmt.Println()
		fmt.Printf("fan-outs:      %d\n", st.FanOuts)
		fmt.Printf("fan-out calls: %d\n", st.FanOutCalls)
		fmt.Printf("batch resolves: %d\n", st.BatchResolves)
		fmt.Printf("batched queries: %d\n", st.BatchedQueries)
		// Admission/overload gauges appear only when the MDM runs with
		// -max-concurrency: the disabled controller reports nothing.
		if st.AdmissionAdmitted+st.AdmissionQueued+st.ShedHigh+st.ShedNormal+st.QueueTimeouts+st.BudgetExpired > 0 || st.Pressure > 0 || st.BrownoutActive {
			fmt.Printf("admitted:      %d (%d queued first)\n", st.AdmissionAdmitted, st.AdmissionQueued)
			fmt.Printf("shed:          %d high, %d normal (%d queue timeouts)\n", st.ShedHigh, st.ShedNormal, st.QueueTimeouts)
			fmt.Printf("budget expired: %d\n", st.BudgetExpired)
			fmt.Printf("pressure:      %.2f\n", st.Pressure)
			brown := "off"
			if st.BrownoutActive {
				brown = "ACTIVE"
			}
			fmt.Printf("brownout:      %s (%d enters, %d exits, %d degraded answers)\n",
				brown, st.BrownoutEnters, st.BrownoutExits, st.BrownoutServed)
		}
		if len(st.Hops) > 0 {
			fmt.Printf("trace spans:   %d (dropped %d)\n", st.TraceSpans, st.TraceDropped)
			fmt.Println("per-hop latency (µs):")
			for _, h := range st.Hops {
				fmt.Printf("  %-14s n=%-7d p50=%-8d p95=%-8d p99=%-8d max=%d\n",
					h.Name, h.Count, h.P50Micros, h.P95Micros, h.P99Micros, h.MaxMicros)
			}
		}
	case "health":
		// A shard running a gossip failure detector answers TypeMembership
		// with its constellation view; anything else refuses the frame and
		// we fall through to the store-liveness lease table.
		if mem, merr := cli.Membership(ctx); merr == nil && mem.Self != "" {
			repair := "off"
			if mem.AutoRepair {
				repair = "on"
			}
			fmt.Printf("gossip: shard %s on map v%d@e%d, auto-repair %s\n",
				mem.Self, mem.MapVersion, mem.MapEpoch, repair)
			fmt.Printf("%-16s %-22s %-9s %-12s %s\n", "MEMBER", "ADDR", "STATE", "FOR", "ROLE")
			for _, m := range mem.Members {
				role := "in-map"
				if m.Spare {
					role = "spare"
				}
				state := m.State
				if state != "alive" {
					state = strings.ToUpper(state)
				}
				fmt.Printf("%-16s %-22s %-9s %-12s %s\n",
					m.ID, m.Addr, state, time.Duration(m.SinceMillis)*time.Millisecond, role)
			}
			return
		}
		st, err := cli.Stats(ctx)
		fatal(err)
		if st.JournalAppends+st.JournalRecovered+st.JournalSyncs > 0 {
			fmt.Printf("journal: %d appends in %d fsyncs, %d compactions, recovered %d records (%d torn bytes dropped)\n",
				st.JournalAppends, st.JournalSyncs, st.JournalCompactions, st.JournalRecovered, st.JournalTornBytes)
		}
		fmt.Printf("liveness: %d renewals, %d quarantines, %d recoveries, %d plan exclusions, %d degraded resolves\n",
			st.LeaseRenewals, st.Quarantines, st.LeaseRecoveries, st.PlanExclusions, st.DegradedResolves)
		if len(st.Leases) == 0 {
			fmt.Println("(no leases: MDM runs without -lease-ttl or no store registered)")
			return
		}
		fmt.Printf("%-24s %-22s %-12s %-6s %s\n", "STORE", "ADDR", "LEASE", "REGS", "STATE")
		for _, l := range st.Leases {
			state := "live"
			if l.Quarantined {
				state = "QUARANTINED"
			}
			fmt.Printf("%-24s %-22s %-12s %-6d %s\n",
				l.Store, l.Addr, time.Duration(l.RemainingMillis)*time.Millisecond, l.Registrations, state)
		}
	case "replication":
		st, err := cli.Stats(ctx)
		fatal(err)
		rs := st.Repl
		if rs == nil {
			fmt.Println("(not replicated: MDM runs without -peers)")
			return
		}
		fmt.Printf("member: %s  role=%s  term=%d\n", rs.ID, rs.Role, rs.Term)
		if rs.LeaderID == "" {
			fmt.Println("leader: (none — election in progress)")
		} else {
			fmt.Printf("leader: %s (%s)\n", rs.LeaderID, rs.LeaderAddr)
		}
		fmt.Printf("journal: last index %d, snapshot base %d, quorum %d\n",
			rs.LastIndex, rs.Base, rs.Quorum)
		if len(rs.Peers) > 0 {
			fmt.Printf("%-24s %-10s %-10s %s\n", "PEER", "MATCH", "LAG", "STATE")
			for _, p := range rs.Peers {
				state := "reachable"
				if !p.Reachable {
					state = "UNREACHABLE"
				}
				if p.Snapshots > 0 {
					state += fmt.Sprintf(" (%d snapshot installs)", p.Snapshots)
				}
				lag := rs.LastIndex - p.Match
				fmt.Printf("%-24s %-10d %-10d %s\n", p.Addr, p.Match, lag, state)
			}
		}
	case "trace":
		need(args, 2, "trace <trace-id>")
		spans, err := cli.TraceSpans(ctx, args[1])
		fatal(err)
		if len(spans) == 0 {
			fmt.Println("(trace unknown or evicted)")
			return
		}
		fmt.Print(trace.RenderTree(spans))
	case "slow":
		max := 10
		if len(args) > 1 {
			fmt.Sscanf(args[1], "%d", &max)
		}
		slow, err := cli.SlowTraces(ctx, max)
		fatal(err)
		if len(slow) == 0 {
			fmt.Println("(no slow traces)")
			return
		}
		for _, st := range slow {
			fmt.Printf("=== %s at %s (root %s)\n", st.TraceID,
				time.Unix(0, st.At).Format(time.RFC3339),
				time.Duration(st.RootMicros)*time.Microsecond)
			fmt.Print(trace.RenderTree(st.Spans))
		}
	case "shard-map":
		m := cli.ShardMap()
		if m.Version == 0 || len(m.Shards) == 0 {
			fmt.Println("(unsharded: MDM runs without -shard-of)")
			return
		}
		fmt.Printf("shard map v%d (%d shards):\n", m.Version, len(m.Shards))
		for _, s := range m.Shards {
			fmt.Printf("  %-16s %s", s.ID, s.Addr)
			if len(s.Members) > 0 {
				fmt.Printf("  members=%v", s.Members)
			}
			fmt.Println()
		}
	case "rebalance":
		need(args, 2, `rebalance <id=addr,id=addr|addr|addr,...>`)
		old := cli.ShardMap()
		if old.Version == 0 || len(old.Shards) == 0 {
			log.Fatalf("gupctl: %s holds no shard map — nothing to rebalance", *mdmAddr)
		}
		next, err := nextMap(old, args[1])
		fatal(err)
		fatal(shard.Rebalance(ctx, old, next, shard.RebalanceOptions{}))
		fmt.Printf("directory live on shard map v%d (%d shards)\n", next.Version, len(next.Shards))
	default:
		log.Fatalf("gupctl: unknown command %q", cmd)
	}
}

// traceID prints the request's trace ID to stderr, keeping stdout clean
// for the actual result.
func traceID(id string) {
	if id != "" {
		fmt.Fprintf(os.Stderr, "trace %s\n", id)
	}
}

func need(args []string, n int, usage string) {
	if len(args) < n {
		log.Fatalf("gupctl: usage: gupctl %s", usage)
	}
}

func fatal(err error) {
	if err != nil {
		log.Fatalf("gupctl: %v", err)
	}
}

func printDoc(doc *xmltree.Node) {
	if doc == nil {
		fmt.Println("(empty)")
		return
	}
	fmt.Print(doc.Indent())
}

// nextMap is the map a rebalance moves the directory onto from old: the
// shards spec names, one version up in old's epoch. An operator rebalance
// never bumps the repair epoch, and a map of a lower epoch than old would
// never supersede it.
func nextMap(old wire.ShardMap, spec string) (wire.ShardMap, error) {
	shards, err := wire.ParseShards(spec)
	if err != nil {
		return wire.ShardMap{}, err
	}
	return wire.ShardMap{Epoch: old.Epoch, Version: old.Version + 1, Shards: shards}, nil
}
