package scenario

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"gupster/internal/dirclient"
)

// waitNoExtraGoroutines polls until the goroutine count returns to the
// baseline (plus a small slack for runtime helpers), failing with a full
// goroutine dump if anything the rig started outlives Close.
func waitNoExtraGoroutines(t *testing.T, baseline int) {
	t.Helper()
	const slack = 2
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline+slack {
			return
		}
		if time.Now().After(deadline) {
			var buf bytes.Buffer
			pprof.Lookup("goroutine").WriteTo(&buf, 1)
			t.Fatalf("goroutines leaked: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRigBuild is the table-driven topology check: each spec must come
// up with the declared shape — S shards × R members, one leader per
// replicated shard, the members in each shard's map entry — hold full
// coverage at birth, resolve every seeded owner through a directory handle
// seeded with the member addresses, and tear down without leaking a
// goroutine.
func TestRigBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("builds live rigs")
	}
	cases := []struct {
		name string
		spec RigSpec
		// wantUsers/wantPaths pin the seeded populations.
		wantUsers, wantPaths int
		wantProxies          bool
		wantRegistrars       bool
		// killLeader kills the last shard's leader through the rig and
		// requires every owner to resolve again once it has a new one.
		killLeader bool
	}{
		{
			name:      "split",
			spec:      RigSpec{Name: "r", Layout: LayoutSplit, Stores: 4, SizeBytes: 512},
			wantUsers: 1, wantPaths: 4,
		},
		{
			name:      "sharded",
			spec:      RigSpec{Name: "r", Layout: LayoutSharded, Stores: 3, Users: 7, SizeBytes: 512},
			wantUsers: 7,
		},
		{
			name: "sharded full profile",
			spec: RigSpec{Name: "r", Layout: LayoutSharded, Stores: 2, Users: 4,
				SizeBytes: 512, Profile: ProfileFull},
			wantUsers: 4,
		},
		{
			name: "proxied links",
			spec: RigSpec{Name: "r", Layout: LayoutSplit, Stores: 2, SizeBytes: 512,
				Links: LinkSet{
					MDM:    &LinkSpec{Latency: time.Millisecond},
					Stores: &LinkSpec{Bandwidth: 1 << 20},
				}},
			wantUsers: 1, wantPaths: 2, wantProxies: true,
		},
		{
			name: "heartbeats",
			spec: RigSpec{Name: "r", Layout: LayoutSharded, Stores: 2, Users: 4,
				SizeBytes: 512, LeaseTTL: 200 * time.Millisecond,
				LeaseGrace: 200 * time.Millisecond, Heartbeats: true},
			wantUsers: 4, wantRegistrars: true,
		},
		{
			name: "replicated 1×3",
			spec: RigSpec{Name: "r", Layout: LayoutSharded, Stores: 2, Users: 6,
				SizeBytes: 512, Replicas: 3, ElectionTTL: 300 * time.Millisecond},
			wantUsers: 6,
		},
		{
			name: "composed 2×3",
			spec: RigSpec{Name: "r", Layout: LayoutSharded, Stores: 2, Users: 8,
				SizeBytes: 512, Shards: 2, Replicas: 3, ElectionTTL: 300 * time.Millisecond},
			wantUsers: 8, killLeader: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			rig, err := Build(tc.spec, 7, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(rig.Stores); got != tc.spec.Stores {
				t.Errorf("built %d stores, want %d", got, tc.spec.Stores)
			}
			if got := len(rig.Users); got != tc.wantUsers {
				t.Errorf("seeded %d users, want %d", got, tc.wantUsers)
			}
			if tc.wantPaths > 0 {
				if got := len(rig.Paths); got != tc.wantPaths {
					t.Errorf("registered %d split paths, want %d", got, tc.wantPaths)
				}
			}
			if rig.MDMAddr == "" {
				t.Error("rig has no MDM address")
			}
			checkShape(t, rig)
			// The directory must hold exactly the declared coverage at birth:
			// nothing missing, nothing stray. No drain runs at build time, so
			// the shards' registries sum to it.
			shards, _ := tc.spec.shape()
			held := 0
			for k := range shards {
				held += rig.head(k).Node.MDM.Registry.Len()
			}
			if want := rig.ExpectedRegistrations(); held != want {
				t.Errorf("registries hold %d registrations, expected coverage is %d", held, want)
			}
			// The end-of-run audit re-checks the same invariant.
			var audit RegistrationAudit
			rig.auditCoverage(&audit)
			if want := rig.ExpectedRegistrations(); audit.Registered != want {
				t.Errorf("directory holds %d registrations, expected coverage is %d", audit.Registered, want)
			}
			d, err := dirclient.Dial(rig.MemberAddrs()...)
			if err != nil {
				t.Fatal(err)
			}
			resolveAll(t, rig, d)
			if tc.killLeader {
				k := shards - 1
				if rig.KillLeader(k) < 0 {
					t.Fatalf("shard %d has no leader to kill", k)
				}
				if rig.WaitLeader(k, 20*rig.electionTTL()) < 0 {
					t.Fatalf("shard %d elected no new leader", k)
				}
				resolveAll(t, rig, d)
			}
			d.Close()
			if tc.wantProxies {
				if rig.MDMProxy == nil || rig.Link("mdm") == nil {
					t.Error("mdm link spec declared but no proxy built")
				}
				for i, node := range rig.Stores {
					if node.Proxy == nil {
						t.Errorf("store %d: link spec declared but no proxy built", i)
					}
				}
			} else if rig.MDMProxy != nil {
				t.Error("no mdm link declared but a proxy was built")
			}
			for i, node := range rig.Stores {
				if tc.wantRegistrars && node.Registrar == nil {
					t.Errorf("store %d: heartbeats declared but no registrar running", i)
				}
				if !tc.wantRegistrars && node.Registrar != nil {
					t.Errorf("store %d: registrar running without heartbeats", i)
				}
			}
			rig.Close()
			waitNoExtraGoroutines(t, baseline)
		})
	}
}

// TestRigCloseIdempotent guards the teardown path the engine leans on:
// closing twice (phase failure cleanup then deferred close) must not
// panic.
func TestRigCloseIdempotent(t *testing.T) {
	if testing.Short() {
		t.Skip("builds live rigs")
	}
	rig, err := Build(RigSpec{Name: "r", Layout: LayoutSplit, Stores: 2, SizeBytes: 512}, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	rig.Close()
	rig.Close()
}

// checkShape verifies the rig built S shards × R members, shard-major: one
// leader per replicated shard, and every member listed in its shard's map
// entry on a sharded one.
func checkShape(t *testing.T, rig *Rig) {
	t.Helper()
	shards, members := rig.Spec.shape()
	if got := len(rig.Nodes); got != shards*members {
		t.Fatalf("built %d directory nodes, want %d shards × %d members", got, shards, members)
	}
	for k := range shards {
		if members >= 2 {
			leaders := 0
			for _, m := range rig.members(k) {
				if m.Node.Repl.Status().Role == "leader" {
					leaders++
				}
			}
			if leaders != 1 {
				t.Errorf("shard %d has %d leaders, want 1", k, leaders)
			}
		}
		if shards < 2 {
			continue
		}
		info := rig.Nodes[0].Node.Shard.Map().Shards[k]
		if want := fmt.Sprintf("shard-%d", k); info.ID != want {
			t.Errorf("map entry %d is %q, want %q", k, info.ID, want)
		}
		if members >= 2 && len(info.Members) != members {
			t.Errorf("shard %d's map entry lists %d members, want %d", k, len(info.Members), members)
		}
	}
}

// resolveAll resolves every seeded owner's address book through d.
func resolveAll(t *testing.T, rig *Rig, d *dirclient.Directory) {
	t.Helper()
	for _, u := range rig.Users {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := resolveVia(ctx, d, u, fmt.Sprintf("/user[@id='%s']/address-book", u), "referral")
		cancel()
		if err != nil {
			t.Errorf("resolve %s: %v", u, err)
		}
	}
}
