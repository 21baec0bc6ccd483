package scenario

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
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
// up with the declared shape, hold full coverage at birth, and tear down
// without leaking a goroutine.
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
			// The MDM's registry must hold the full declared coverage at
			// birth — the invariant the end-of-run audit re-checks.
			if got, want := rig.MDM.Registry.Len(), rig.ExpectedRegistrations(); got != want {
				t.Errorf("registry holds %d registrations, expected coverage is %d", got, want)
			}
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
