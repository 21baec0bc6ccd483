// Benchmarks regenerating the component-level experiments of
// EXPERIMENTS.md (E1–E14 and E18); the system-level ones (E16, E17,
// E19–E23) are scenarios run by cmd/gupbench. The paper has no
// quantitative evaluation — its conclusion defers "the development of
// testbeds and benchmarks" — so each benchmark here is keyed to a
// quantifiable claim from the text; see DESIGN.md §3 for the mapping.
// Columns the tables need beyond ns/op are custom metrics (mdmB/op, hit%,
// downB/op, shieldEvals/op, p99-ms, replay-ms, …).
//
// Run all of them with:
//
//	go test -bench=. -benchmem
//
// CI smoke-runs every sub-benchmark once (-benchtime 1x) so none rots.
package gupster_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"gupster/internal/core"
	"gupster/internal/coverage"
	"gupster/internal/faultinject"
	"gupster/internal/federation"
	"gupster/internal/hlr"
	"gupster/internal/journal"
	"gupster/internal/metrics"
	"gupster/internal/policy"
	"gupster/internal/presence"
	"gupster/internal/reachme"
	"gupster/internal/scenario"
	"gupster/internal/schema"
	"gupster/internal/store"
	"gupster/internal/syncml"
	"gupster/internal/token"
	"gupster/internal/wire"
	"gupster/internal/workload"
	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

var benchKey = []byte("bench-shared-key")

// buildRig builds a benchmark's topology through the scenario rig — the
// one in-process constellation builder — and tears it down after.
func buildRig(b *testing.B, spec scenario.RigSpec) *scenario.Rig {
	b.Helper()
	rig, err := scenario.Build(spec, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rig.Close)
	return rig
}

// splitRig is E16's split topology: one user "u" whose address book of
// sizeBytes is spread across k stores by item type, each piece registered
// as a partial cover; and a client of it acting as u.
func splitRig(b *testing.B, k, sizeBytes int) (*scenario.Rig, *core.Client) {
	rig := buildRig(b, scenario.RigSpec{Name: "split", Layout: scenario.LayoutSplit, Stores: k, SizeBytes: sizeBytes})
	return rig, dialRig(b, rig, "u")
}

// dialRig connects a client of the rig's directory as identity.
func dialRig(b *testing.B, rig *scenario.Rig, identity string) *core.Client {
	b.Helper()
	cli, err := core.DialMDM(rig.MDMAddr, identity, "self")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cli.Close() })
	return cli
}

// BenchmarkE1QueryPatterns — referral vs chaining vs recruiting across
// component splits and sizes (§5.2, §5.3: "the use of multiple distributed
// query patterns will permit minimizing the transport cost"). The custom
// metric mdmB/op is the data volume flowing through the MDM: ~0 for
// referral, the full component for chaining.
func BenchmarkE1QueryPatterns(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		for _, size := range []int{1 << 10, 16 << 10} {
			for _, pattern := range []wire.QueryPattern{
				wire.PatternReferral, wire.PatternChaining, wire.PatternRecruiting,
			} {
				name := fmt.Sprintf("pattern=%s/stores=%d/size=%dKiB", pattern, k, size>>10)
				b.Run(name, func(b *testing.B) {
					rig, cli := splitRig(b, k, size)
					ctx := context.Background()
					path := "/user[@id='u']/address-book"
					before := rig.MDM.Stats.BytesProxied.Load()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						var err error
						if pattern == wire.PatternReferral {
							_, err = cli.Get(ctx, path)
						} else {
							_, err = cli.GetVia(ctx, path, pattern)
						}
						if err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					proxied := rig.MDM.Stats.BytesProxied.Load() - before
					b.ReportMetric(float64(proxied)/float64(b.N), "mdmB/op")
				})
			}
		}
	}
}

// BenchmarkE2MDMOverhead — direct store access vs MDM-mediated referral
// (§5.3: "expect very little overhead because of GUPster"). The referral
// adds one resolve round trip and the shield decision; data still flows
// store→client. Both sides fetch the same piece: the direct one signs
// store-0's registered cover, the one a referral for the book names.
func BenchmarkE2MDMOverhead(b *testing.B) {
	rig, cli := splitRig(b, 1, 4<<10)
	ctx := context.Background()

	b.Run("direct", func(b *testing.B) {
		sc, err := store.DialClient(rig.Stores[0].Addr)
		if err != nil {
			b.Fatal(err)
		}
		defer sc.Close()
		q := rig.Signer.Sign("store-0", "u", xpath.MustParse(rig.Paths[0]), token.VerbFetch, "u", time.Hour)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := sc.Fetch(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("via-mdm-referral", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cli.Get(ctx, "/user[@id='u']/address-book"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("via-mdm-referral-parallel8", func(b *testing.B) {
		b.SetParallelism(8)
		b.RunParallel(func(pb *testing.PB) {
			cli, err := core.DialMDM(rig.MDMAddr, "u", "self")
			if err != nil {
				b.Fatal(err)
			}
			defer cli.Close()
			for pb.Next() {
				if _, err := cli.Get(ctx, "/user[@id='u']/address-book"); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkE3AccessControlPlacement — shield decision cost versus rule-set
// size, and the policy-sync traffic the store-side placement pays (§5.3:
// "having access control at the level of the data-stores would require
// keeping access control policies in sync").
func BenchmarkE3AccessControlPlacement(b *testing.B) {
	mkRepo := func(rules int) *policy.Repository {
		repo := policy.NewRepository()
		s := &policy.Shield{Owner: "alice"}
		for i := 0; i < rules; i++ {
			s.Rules = append(s.Rules, policy.Rule{
				ID:     fmt.Sprintf("r%04d", i),
				Path:   xpath.MustParse(fmt.Sprintf("/user[@id='alice']/address-book/item[@name='c%d']", i)),
				Cond:   policy.RequesterIs(fmt.Sprintf("u%d", i)),
				Effect: policy.Permit,
			})
		}
		s.Rules = append(s.Rules, policy.Rule{
			ID: "family", Path: xpath.MustParse("/user[@id='alice']/presence"),
			Cond: policy.RoleIs("family"), Effect: policy.Permit,
		})
		repo.Put(s)
		return repo
	}
	req := xpath.MustParse("/user[@id='alice']/presence")
	ctx := policy.Context{Requester: "mom", Role: "family"}

	for _, rules := range []int{10, 100, 1000} {
		repo := mkRepo(rules)
		pdp := &policy.DecisionPoint{Repo: repo}
		b.Run(fmt.Sprintf("decide-at-mdm/rules=%d", rules), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if d := pdp.Decide("alice", req, ctx); !d.Granted() {
					b.Fatal("denied")
				}
			}
		})
		b.Run(fmt.Sprintf("decide-at-store-replica/rules=%d", rules), func(b *testing.B) {
			rep := policy.NewReplica()
			rep.SyncFrom(repo)
			for i := 0; i < b.N; i++ {
				if d := rep.Decide("alice", req, ctx); !d.Granted() {
					b.Fatal("denied")
				}
			}
		})
	}
	// The sync traffic: every shield change must reach every replica.
	for _, replicas := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("policy-sync/replicas=%d", replicas), func(b *testing.B) {
			repo := mkRepo(10)
			reps := make([]*policy.Replica, replicas)
			for i := range reps {
				reps[i] = policy.NewReplica()
				reps[i].SyncFrom(repo)
			}
			transferred := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				repo.Put(&policy.Shield{Owner: "alice"}) // one provisioning change
				for _, r := range reps {
					transferred += r.SyncFrom(repo)
				}
			}
			b.ReportMetric(float64(transferred)/float64(b.N), "shieldXfers/op")
		})
	}
}

// BenchmarkE4Caching — MDM component cache under Zipf access (§5.2:
// "GUPster should probably also offer some caching"). hit% is the measured
// cache hit ratio.
func BenchmarkE4Caching(b *testing.B) {
	const users = 64
	for _, cacheEntries := range []int{0, 8, 32, 64} {
		b.Run(fmt.Sprintf("cache=%d", cacheEntries), func(b *testing.B) {
			rig := buildRig(b, scenario.RigSpec{Name: "e4", Layout: scenario.LayoutSharded,
				Stores: 1, Users: users, SizeBytes: 2 << 10, CacheEntries: cacheEntries})
			cli := dialRig(b, rig, "self")
			pop := workload.NewPopulation(users, 1.2, 3)
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := pop.Next()
				cli.Identity = u // owner access
				if _, err := cli.GetVia(ctx, fmt.Sprintf("/user[@id='%s']/address-book", u), wire.PatternChaining); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			hits, misses := rig.MDM.Stats.CacheHits.Load(), rig.MDM.Stats.CacheMisses.Load()
			if hits+misses > 0 {
				b.ReportMetric(100*float64(hits)/float64(hits+misses), "hit%")
			}
		})
	}
}

// BenchmarkE5Sync — fast (delta) vs slow (full) synchronization across
// address-book sizes and change rates (§2.3 requirement 7). downB/op is
// payload volume toward the device.
func BenchmarkE5Sync(b *testing.B) {
	for _, entries := range []int{100, 1000} {
		for _, changePct := range []int{1, 10, 50} {
			b.Run(fmt.Sprintf("fast/entries=%d/change=%d%%", entries, changePct), func(b *testing.B) {
				benchSync(b, entries, changePct, false)
			})
			b.Run(fmt.Sprintf("slow/entries=%d/change=%d%%", entries, changePct), func(b *testing.B) {
				benchSync(b, entries, changePct, true)
			})
		}
	}
}

func benchSync(b *testing.B, entries, changePct int, forceSlow bool) {
	eng := store.NewEngine("s1")
	srv := &syncml.Server{Store: eng, Keys: xmltree.DefaultKeys}
	path := xpath.MustParse("/user[@id='u']/address-book")
	rng := workload.Rand(7)
	if _, err := eng.Put("u", path, workload.AddressBook(entries, rng)); err != nil {
		b.Fatal(err)
	}
	tr := &inprocTransport{srv: srv, user: "u", path: path}
	dev := syncml.NewDevice(xmltree.DefaultKeys)
	if _, err := dev.Sync(context.Background(), tr, syncml.ServerWins); err != nil {
		b.Fatal(err)
	}
	changes := entries * changePct / 100
	if changes == 0 {
		changes = 1
	}
	var bytesDown int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		comp, _, err := eng.GetComponent("u", path)
		if err != nil {
			b.Fatal(err)
		}
		for c := 0; c < changes; c++ {
			items := comp.ChildrenNamed("item")
			it := items[(i*13+c)%len(items)]
			it.Children[0].Text = fmt.Sprintf("908-%06d", i*1000+c)
		}
		if _, err := eng.Put("u", path, comp); err != nil {
			b.Fatal(err)
		}
		if forceSlow {
			dev.Anchor = 0 // lose the anchor: full transfer
		}
		b.StartTimer()
		st, err := dev.Sync(context.Background(), tr, syncml.ServerWins)
		if err != nil {
			b.Fatal(err)
		}
		bytesDown += int64(st.BytesDown)
		if forceSlow != st.Slow {
			b.Fatalf("slow=%v, want %v", st.Slow, forceSlow)
		}
	}
	b.ReportMetric(float64(bytesDown)/float64(b.N), "downB/op")
}

type inprocTransport struct {
	srv  *syncml.Server
	user string
	path xpath.Path
}

func (t *inprocTransport) SyncStart(_ context.Context, lastAnchor uint64) (*wire.SyncStartResponse, error) {
	return t.srv.HandleStart(t.user, t.path, lastAnchor)
}

func (t *inprocTransport) SyncDelta(_ context.Context, req *wire.SyncDeltaRequest) (*wire.SyncDeltaResponse, error) {
	return t.srv.HandleDelta(t.user, t.path, req)
}

// BenchmarkE6CoverageLookup — coverage resolution versus registry size,
// indexed against linear scan (§4.5; the index is the design decision, the
// scan is the ablation).
func BenchmarkE6CoverageLookup(b *testing.B) {
	sections := []string{"presence", "calendar", "address-book", "devices", "self"}
	for _, n := range []int{100, 10000, 100000} {
		reg := coverage.New()
		users := n / len(sections)
		if users == 0 {
			users = 1
		}
		for u := 0; u < users; u++ {
			for s, sec := range sections {
				p := xpath.MustParse(fmt.Sprintf("/user[@id='%s']/%s", workload.UserID(u), sec))
				if err := reg.Register(p, coverage.StoreID(fmt.Sprintf("store-%d", s))); err != nil {
					b.Fatal(err)
				}
			}
		}
		q := xpath.MustParse(fmt.Sprintf("/user[@id='%s']/presence", workload.UserID(users/2)))
		b.Run(fmt.Sprintf("indexed/regs=%d", reg.Len()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if ms := reg.Lookup(q); len(ms) != 1 {
					b.Fatalf("matches = %d", len(ms))
				}
			}
		})
		b.Run(fmt.Sprintf("linear/regs=%d", reg.Len()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if ms := reg.LinearLookup(q); len(ms) != 1 {
					b.Fatalf("matches = %d", len(ms))
				}
			}
		})
	}
}

// BenchmarkE7ReachMe — the end-to-end selective reach-me decision over the
// full converged testbed (§2.2: "a selective reach-me decision can be
// rendered in just a few seconds"; §2.3: "within hundreds of
// milliseconds"). Parallel vs sequential component gathering is the
// ablation; p99-ms and max-ms are the tail against that budget.
func BenchmarkE7ReachMe(b *testing.B) {
	tb, err := workload.NewTestbed(workload.TestbedOptions{
		Users: 8, BookEntries: 40, Seed: 5, AllowRole: "reachme",
	})
	if err != nil {
		b.Fatal(err)
	}
	defer tb.Close()
	cli, err := tb.Client("reachme-svc", "reachme")
	if err != nil {
		b.Fatal(err)
	}
	getter := reachme.GetterFunc(func(ctx context.Context, path string) (*xmltree.Node, error) {
		return cli.Get(ctx, path)
	})
	at := time.Date(2026, 7, 6, 10, 0, 0, 0, time.UTC)
	for _, seq := range []bool{false, true} {
		name := "parallel-fanout"
		if seq {
			name = "sequential"
		}
		b.Run(name, func(b *testing.B) {
			svc := &reachme.Service{Profile: getter, Sequential: seq}
			h := metrics.NewHistogram()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				d, err := svc.Decide(context.Background(), tb.Users[i%len(tb.Users)], at)
				if err != nil {
					b.Fatal(err)
				}
				h.Record(time.Since(start))
				if len(d.Attempts) == 0 {
					b.Fatal("no attempts")
				}
			}
			b.ReportMetric(float64(h.Percentile(99))/1e6, "p99-ms")
			b.ReportMetric(float64(h.Max())/1e6, "max-ms")
		})
	}
}

// BenchmarkE8PushVsPull — subscriptions against polling for presence
// (§5.2: "every polling request needs to be checked to enforce the
// end-user's privacy shield. Having the subscription handled by GUPster
// internally would save this extra work"). One op is one presence change
// observed by the watcher — polled pollsPerChange times, or pushed once —
// so shieldEvals/op and msgs/op are the table's per-event columns.
func BenchmarkE8PushVsPull(b *testing.B) {
	const pollsPerChange = 10
	build := func(b *testing.B) (*workload.Testbed, *core.Client, string) {
		tb, err := workload.NewTestbed(workload.TestbedOptions{Users: 1, Seed: 9})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(tb.Close)
		user := tb.Users[0]
		tb.WatchPresence(user)
		cli, err := tb.Client(user, "self")
		if err != nil {
			b.Fatal(err)
		}
		return tb, cli, user
	}
	b.Run("poll", func(b *testing.B) {
		tb, cli, user := build(b)
		path := fmt.Sprintf("/user[@id='%s']/presence", user)
		before := tb.MDM.Stats.ShieldEvals.Load()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tb.Presence.Set(user, presenceStatus([]string{"available", "busy"}[i%2]), "")
			for poll := 0; poll < pollsPerChange; poll++ {
				if _, err := cli.Get(context.Background(), path); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		evals := tb.MDM.Stats.ShieldEvals.Load() - before
		b.ReportMetric(float64(evals)/float64(b.N), "shieldEvals/op")
		b.ReportMetric(pollsPerChange, "msgs/op")
	})
	b.Run("push", func(b *testing.B) {
		tb, cli, user := build(b)
		var delivered atomic.Int64
		done := make(chan struct{}, 1)
		if _, err := cli.Subscribe(context.Background(),
			fmt.Sprintf("/user[@id='%s']/presence", user),
			func(wire.Notification) {
				if delivered.Add(1) == int64(b.N) {
					done <- struct{}{}
				}
			}); err != nil {
			b.Fatal(err)
		}
		before := tb.MDM.Stats.ShieldEvals.Load()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			status := []string{"available", "busy", "away"}[i%3]
			tb.Presence.Set(user, presenceStatus(status), "")
		}
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			b.Fatalf("only %d/%d notifications", delivered.Load(), b.N)
		}
		b.StopTimer()
		evals := tb.MDM.Stats.ShieldEvals.Load() - before
		b.ReportMetric(float64(evals)/float64(b.N), "shieldEvals/op")
		// One notification per change, plus the subscribe itself.
		b.ReportMetric(float64(b.N+1)/float64(b.N), "msgs/op")
	})
}

// BenchmarkE9MDMVariants — meta-data architectures of §5.1: centralized,
// user-level distributed (white pages + per-user MDM), and hierarchical
// (delegation chains), measured on resolve latency.
func BenchmarkE9MDMVariants(b *testing.B) {
	// Hand-built: a federation of separate MDMs, not one directory a rig builds.
	signer := token.NewSigner(benchKey)
	mkMDM := func(b *testing.B) (*core.MDM, *core.Server) {
		m := core.New(core.Config{Schema: schema.GUP(), Signer: signer, GrantTTL: time.Minute})
		s := core.NewServer(m)
		if err := s.Start("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { m.Close(); s.Close() })
		return m, s
	}
	eng := store.NewEngine("s1")
	ssrv := store.NewServer(eng, signer)
	if err := ssrv.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer ssrv.Close()
	p := xpath.MustParse("/user[@id='alice']/presence")
	eng.Put("alice", p, xmltree.MustParse(`<presence status="on"/>`))

	req := &wire.ResolveRequest{
		Path:    "/user[@id='alice']/presence",
		Context: policy.Context{Requester: "alice"},
		Verb:    token.VerbFetch,
	}

	b.Run("centralized", func(b *testing.B) {
		m, s := mkMDM(b)
		m.Register("s1", ssrv.Addr(), p)
		cli, err := core.DialMDM(s.Addr(), "alice", "self")
		if err != nil {
			b.Fatal(err)
		}
		defer cli.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cli.Resolve(context.Background(), req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("user-distributed-whitepages", func(b *testing.B) {
		m, s := mkMDM(b)
		m.Register("s1", ssrv.Addr(), p)
		wp := federation.NewWhitePages()
		wp.Set("alice", s.Addr(), false)
		wpSrv, err := wp.Serve("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer wpSrv.Close()
		loc, err := federation.NewLocator(wpSrv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer loc.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := loc.Resolve(context.Background(), "alice", req); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, depth := range []int{1, 2} {
		b.Run(fmt.Sprintf("hierarchical/hops=%d", depth), func(b *testing.B) {
			leafMDM, _ := mkMDM(b)
			leafMDM.Register("s1", ssrv.Addr(), p)
			leaf := federation.NewNode(leafMDM)
			defer leaf.Close()
			addr := ""
			{
				srv, err := leaf.Serve("127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				addr = srv.Addr()
			}
			for d := 1; d < depth; d++ {
				midMDM, _ := mkMDM(b)
				mid := federation.NewNode(midMDM)
				defer mid.Close()
				mid.Delegate(p, addr)
				srv, err := mid.Serve("127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				addr = srv.Addr()
			}
			topMDM, _ := mkMDM(b)
			top := federation.NewNode(topMDM)
			defer top.Close()
			top.Delegate(p, addr)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := top.Resolve(context.Background(), req)
				if err != nil {
					b.Fatal(err)
				}
				if resp.Hops != depth {
					b.Fatalf("hops = %d, want %d", resp.Hops, depth)
				}
			}
		})
	}
}

// BenchmarkE10Reconcile — address-book merge throughput versus overlap
// (§2.3 requirement 6; the Figure 9 split + deep union).
func BenchmarkE10Reconcile(b *testing.B) {
	for _, items := range []int{100, 1000} {
		for _, overlapPct := range []int{0, 50, 100} {
			b.Run(fmt.Sprintf("items=%d/overlap=%d%%", items, overlapPct), func(b *testing.B) {
				rng := workload.Rand(11)
				a := workload.AddressBook(items, rng)
				shared := items * overlapPct / 100
				c := xmltree.New("address-book")
				for i, item := range a.ChildrenNamed("item") {
					if i >= shared {
						break
					}
					dup := item.Clone()
					dup.Add(xmltree.NewText("note", "from the other store"))
					c.Add(dup)
				}
				for i := shared; i < items; i++ {
					it := xmltree.New("item").SetAttr("name", fmt.Sprintf("other-%d", i))
					it.Add(xmltree.NewText("phone", "555"))
					c.Add(it)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					u := xmltree.DeepUnion(a, c, xmltree.DefaultKeys)
					if len(u.Children) == 0 {
						b.Fatal("empty union")
					}
				}
			})
		}
	}
}

// BenchmarkE11HLR — the wireless substrate under the traffic mix the paper
// describes (§3.1.2: location updates and call-delivery lookups dominate).
func BenchmarkE11HLR(b *testing.B) {
	for _, subs := range []int{10000, 100000} {
		for _, mix := range []struct {
			name    string
			updates int // per 5 ops
		}{
			{"lookup-heavy-1:4", 1},
			{"update-heavy-4:1", 4},
		} {
			b.Run(fmt.Sprintf("subs=%d/%s", subs, mix.name), func(b *testing.B) {
				h := hlrWith(b, subs)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n := i % subs
					if i%5 < mix.updates {
						if _, err := h.LocationUpdate(fmt.Sprintf("imsi-%d", n), fmt.Sprintf("vlr-%d", i%8), "cell"); err != nil {
							b.Fatal(err)
						}
					} else {
						if _, err := h.CallDelivery("caller", fmt.Sprintf("555-%07d", n)); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// BenchmarkE12Filtering — the MDM's spurious-query filter (§5.3: "GUPster
// is able to filter out spurious ones"): schema path validation cost for
// accepted and rejected requests.
func BenchmarkE12Filtering(b *testing.B) {
	s := schema.GUP()
	valid := xpath.MustParse("/user[@id='alice']/address-book/item[@type='personal']")
	invalidElement := xpath.MustParse("/user[@id='alice']/shoe-size")
	invalidAttr := xpath.MustParse("/user/address-book/item[@colour='red']")

	b.Run("valid-path", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := s.ValidatePath(valid); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("spurious-element", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := s.ValidatePath(invalidElement); err == nil {
				b.Fatal("accepted")
			}
		}
	})
	b.Run("spurious-attribute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := s.ValidatePath(invalidAttr); err == nil {
				b.Fatal("accepted")
			}
		}
	})
	// End-to-end: rejection happens before any store work.
	_, cli := splitRig(b, 1, 1<<10)
	b.Run("end-to-end-spurious", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cli.Get(context.Background(), "/user[@id='u']/shoe-size"); err == nil {
				b.Fatal("accepted")
			}
		}
	})
}

// hlrWith seeds an HLR with n attached subscribers.
func hlrWith(b *testing.B, n int) *hlr.HLR {
	b.Helper()
	h := hlr.New()
	for i := 0; i < 8; i++ {
		h.AddVLR(fmt.Sprintf("vlr-%d", i), fmt.Sprintf("msc-%d", i), true)
	}
	for i := 0; i < n; i++ {
		if err := h.AddSubscriber(hlr.Subscriber{
			IMSI:   fmt.Sprintf("imsi-%d", i),
			MSISDN: fmt.Sprintf("555-%07d", i),
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := h.LocationUpdate(fmt.Sprintf("imsi-%d", i), fmt.Sprintf("vlr-%d", i%8), "cell"); err != nil {
			b.Fatal(err)
		}
	}
	return h
}

func presenceStatus(s string) presence.Status { return presence.Status(s) }

// BenchmarkE13Constellation — the §4.2/§5.3 "family of mirrored servers"
// as the scenario rig's quorum constellation (n = 1 is the plain rig node,
// which keeps no journal): the mutation path's quorum cost vs
// constellation size, measured at the leader, and the read path, answered
// by a follower from its own replica. Journals run NoSync, so the rows
// compare replication, not the disk; the election TTL is gupsterd's
// default, so a saturated runner does not depose the leader mid-row.
func BenchmarkE13Constellation(b *testing.B) {
	for _, n := range []int{1, 3, 5} {
		rig := buildRig(b, scenario.RigSpec{Name: "e13", Replicas: n, ElectionTTL: 2 * time.Second})
		leader := max(rig.Leader(0), 0)
		follower := (leader + 1) % n
		dial := func(i int) *wire.Client {
			c, err := wire.DialContext(context.Background(), rig.Nodes[i].Addr)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { c.Close() })
			return c
		}
		atLeader, atFollower := dial(leader), dial(follower)
		register := func(owner string) error {
			return atLeader.Call(context.Background(), wire.TypeRegister, &wire.RegisterRequest{
				Store: "s1", Address: "127.0.0.1:1", Path: fmt.Sprintf("/user[@id='%s']/presence", owner),
			}, nil)
		}
		// The resolved registration is acknowledged by a quorum; wait until
		// the follower read from holds it too.
		seed := fmt.Sprintf("m%d-seed", n)
		if err := register(seed); err != nil {
			b.Fatal(err)
		}
		for deadline := time.Now().Add(10 * time.Second); rig.Nodes[follower].Node.MDM.Registry.StoreCount("s1") == 0; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				b.Fatal("the follower never received the registration")
			}
		}

		b.Run(fmt.Sprintf("register/members=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := register(fmt.Sprintf("m%d-%d", n, i)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("resolve/members=%d", n), func(b *testing.B) {
			req := &wire.ResolveRequest{
				Path:    fmt.Sprintf("/user[@id='%s']/presence", seed),
				Context: policy.Context{Requester: seed},
				Verb:    token.VerbFetch,
			}
			for i := 0; i < b.N; i++ {
				var resp wire.ResolveResponse
				if err := atFollower.Call(context.Background(), wire.TypeResolve, req, &resp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE14ClosestReplica — closest-replica routing among redundant
// stores (§5.3): a far replica behind a delaying proxy sorts first, so the
// naive order pays its delay on every fetch; latency-aware ordering learns
// to prefer the near one. Both hold the whole book; the fetched path is
// store-0's registered cover, so the two are alternatives for it.
func BenchmarkE14ClosestReplica(b *testing.B) {
	build := func(b *testing.B, farDelay time.Duration, disableRouting bool) (*core.Client, string) {
		rig, cli := splitRig(b, 1, 2<<10)
		farEng := store.NewEngine("a-far-replica")
		farSrv := store.NewServer(farEng, rig.Signer)
		if err := farSrv.Start("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { farSrv.Close() })
		comp, _, err := rig.Stores[0].Engine.GetComponent("u", xpath.MustParse("/user[@id='u']/address-book"))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := farEng.Put("u", xpath.MustParse("/user[@id='u']/address-book"), comp.Clone()); err != nil {
			b.Fatal(err)
		}
		proxy, err := faultinject.NewProxy(farSrv.Addr(), 14)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { proxy.Close() })
		proxy.SetLatency(farDelay, 0)
		if err := rig.MDM.Register("a-far-replica", proxy.Addr(), xpath.MustParse(rig.Paths[0])); err != nil {
			b.Fatal(err)
		}
		cli.DisableLatencyRouting = disableRouting
		return cli, rig.Paths[0]
	}
	for _, farDelay := range []time.Duration{10 * time.Millisecond, 50 * time.Millisecond} {
		for _, disabled := range []bool{true, false} {
			name := "latency-aware"
			if disabled {
				name = "naive-order"
			}
			b.Run(fmt.Sprintf("far=%s/%s", farDelay, name), func(b *testing.B) {
				cli, path := build(b, farDelay, disabled)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := cli.Get(context.Background(), path); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE18Recovery — crash recovery of the durable directory (§5.3,
// DESIGN.md §8). A journaled MDM is populated under real fsync group
// commit with n registrations (a shield rule riding every 10th) and then
// abandoned without Close: an append is acknowledged only after its fsync,
// so everything acknowledged is on disk — exactly the kill -9 contract.
// One op is one restart on that data dir: journal replay, listener up,
// first successful resolve over TCP with no store re-registering. ns/op
// is kill → first resolve; replay-ms, listen-ms and first-resolve-ms
// split it and wal-B is the journal replayed. (The other half of E18 —
// a silent store leaves plans within lease TTL + grace — is pinned by
// TestLeaseQuarantineDegradesAndRecovers and the kill -9 e2e.)
func BenchmarkE18Recovery(b *testing.B) {
	// Hand-built: it restarts a bare core.Server on a crashed journal, mid-run.
	signer := token.NewSigner(benchKey)
	mkMDM := func() *core.MDM {
		return core.New(core.Config{Schema: schema.GUP(), Signer: signer, GrantTTL: time.Minute})
	}
	for _, n := range []int{100, 1000, 5000} {
		dir := b.TempDir()
		crashed := mkMDM()
		if _, err := core.OpenDurable(crashed, dir, journal.Options{CompactEvery: -1}); err != nil {
			b.Fatal(err)
		}
		// Closed only after every restart below has run: until then the
		// directory is what a killed process left behind.
		b.Cleanup(func() { crashed.Close() })
		for i := 0; i < n; i++ {
			path := fmt.Sprintf("/user[@id='u%d']/presence", i)
			if err := crashed.Register(coverage.StoreID(fmt.Sprintf("store-%d", i%16)),
				fmt.Sprintf("127.0.0.1:%d", 7100+i%16), xpath.MustParse(path)); err != nil {
				b.Fatal(err)
			}
			if i%10 == 0 {
				owner := fmt.Sprintf("u%d", i)
				if err := crashed.PutRule(owner, &wire.PutRuleRequest{
					Owner: owner,
					Rule:  wire.RulePayload{ID: "r", Path: path, Effect: "permit", Cond: "role=friend"},
				}); err != nil {
					b.Fatal(err)
				}
			}
		}
		wal, err := os.Stat(filepath.Join(dir, "wal.log"))
		if err != nil {
			b.Fatal(err)
		}

		b.Run(fmt.Sprintf("registrations=%d", n), func(b *testing.B) {
			var replay, listen, resolve time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				m := mkMDM()
				if _, err := core.OpenDurable(m, dir, journal.Options{CompactEvery: -1}); err != nil {
					b.Fatal(err)
				}
				tReplay := time.Now()
				srv := core.NewServer(m)
				if err := srv.Start("127.0.0.1:0"); err != nil {
					b.Fatal(err)
				}
				tListen := time.Now()
				cli, err := core.DialMDM(srv.Addr(), "u1", "self")
				if err != nil {
					b.Fatal(err)
				}
				if _, err := cli.Resolve(context.Background(), &wire.ResolveRequest{
					Path:    "/user[@id='u1']/presence",
					Context: policy.Context{Requester: "u1", Role: "self"},
				}); err != nil {
					b.Fatalf("first resolve after recovery: %v", err)
				}
				tResolve := time.Now()
				b.StopTimer()
				replay += tReplay.Sub(t0)
				listen += tListen.Sub(tReplay)
				resolve += tResolve.Sub(tListen)
				if got := m.Registry.Len(); got != n {
					b.Fatalf("recovered %d registrations, want %d", got, n)
				}
				cli.Close()
				srv.Close()
				m.Close()
				b.StartTimer()
			}
			perOpMillis := func(d time.Duration) float64 { return float64(d) / 1e6 / float64(b.N) }
			b.ReportMetric(perOpMillis(replay), "replay-ms")
			b.ReportMetric(perOpMillis(listen), "listen-ms")
			b.ReportMetric(perOpMillis(resolve), "first-resolve-ms")
			b.ReportMetric(float64(wal.Size()), "wal-B")
		})
	}
}
