package core_test

import (
	"context"
	"errors"
	"log/slog"
	"reflect"
	"testing"
	"time"

	"gupster/internal/core"
	"gupster/internal/coverage"
	"gupster/internal/eventlog"
	"gupster/internal/journal"
	"gupster/internal/policy"
	"gupster/internal/schema"
	"gupster/internal/token"
	"gupster/internal/wire"
	"gupster/internal/xpath"
)

func newBareMDM(cfg core.Config) *core.MDM {
	if cfg.Signer == nil {
		cfg.Signer = token.NewSigner(key)
	}
	if cfg.Schema == nil {
		cfg.Schema = schema.GUP()
	}
	return core.New(cfg)
}

// Regression: a store's address (and pooled connection) must go when its
// last registration goes, not leak forever.
func TestUnregisterForgetsStoreCompletely(t *testing.T) {
	m := newBareMDM(core.Config{})
	defer m.Close()
	p1 := xpath.MustParse("/user[@id='u']/presence")
	p2 := xpath.MustParse("/user[@id='u']/calendar")
	if err := m.Register("s1", "127.0.0.1:7001", p1); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("s1", "127.0.0.1:7001", p2); err != nil {
		t.Fatal(err)
	}
	if err := m.Unregister("s1", p1); err != nil {
		t.Fatal(err)
	}
	if got := m.AddrOf("s1"); got != "127.0.0.1:7001" {
		t.Fatalf("address dropped while registrations remain: %q", got)
	}
	if err := m.Unregister("s1", p2); err != nil {
		t.Fatal(err)
	}
	if got := m.AddrOf("s1"); got != "" {
		t.Fatalf("address leaked after last unregistration: %q", got)
	}
	if got := m.Registry.StoreCount("s1"); got != 0 {
		t.Fatalf("StoreCount = %d after full unregistration", got)
	}
}

// Regression: re-registration is authoritative about the address — a
// changed address replaces the old one, and an empty address clears it
// rather than silently preserving a stale one.
func TestRegisterAddressAuthoritative(t *testing.T) {
	m := newBareMDM(core.Config{})
	defer m.Close()
	p := xpath.MustParse("/user[@id='u']/presence")
	if err := m.Register("s1", "127.0.0.1:7001", p); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("s1", "127.0.0.1:7002", p); err != nil {
		t.Fatal(err)
	}
	if got := m.AddrOf("s1"); got != "127.0.0.1:7002" {
		t.Fatalf("re-registration kept stale address: %q", got)
	}
	// A registration without an address is a coverage claim, not an
	// address update: the directory keeps the last address it learned.
	if err := m.Register("s1", "", p); err != nil {
		t.Fatal(err)
	}
	if got := m.AddrOf("s1"); got != "127.0.0.1:7002" {
		t.Fatalf("empty re-registration lost the address: %q", got)
	}
}

// The tentpole: every registration and shield rule survives a restart via
// the journal, with no re-registration.
func TestDurableRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()

	m1 := newBareMDM(core.Config{})
	if _, err := core.OpenDurable(m1, dir, journal.Options{}); err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	regs := []struct{ store, addr, path string }{
		{"s1", "127.0.0.1:7001", "/user[@id='u']/presence"},
		{"s1", "127.0.0.1:7001", "/user[@id='u']/calendar"},
		{"s2", "127.0.0.1:7002", "/user[@id='v']/address-book"},
		{"s3", "127.0.0.1:7003", "/user[@id='u']/devices"},
	}
	for _, r := range regs {
		if err := m1.Register(coverage.StoreID(r.store), r.addr, xpath.MustParse(r.path)); err != nil {
			t.Fatal(err)
		}
	}
	// One store departs cleanly: recovery must not resurrect it.
	if err := m1.Unregister("s3", xpath.MustParse("/user[@id='u']/devices")); err != nil {
		t.Fatal(err)
	}
	if err := m1.PutRule("u", &wire.PutRuleRequest{Owner: "u", Rule: wire.RulePayload{
		ID: "friends", Path: "/user[@id='u']/presence", Effect: "permit", Cond: "role=friend",
	}}); err != nil {
		t.Fatal(err)
	}
	if err := m1.PutRule("u", &wire.PutRuleRequest{Owner: "u", Rule: wire.RulePayload{
		ID: "doomed", Path: "/user[@id='u']/calendar", Effect: "permit", Cond: "role=friend",
	}}); err != nil {
		t.Fatal(err)
	}
	if err := m1.DeleteRule("u", "doomed"); err != nil {
		t.Fatal(err)
	}
	wantCoverage := m1.CoverageSnapshot()
	wantShields := m1.ShieldSnapshot()
	m1.Close()

	m2 := newBareMDM(core.Config{})
	defer m2.Close()
	rec, err := core.OpenDurable(m2, dir, journal.Options{})
	if err != nil {
		t.Fatalf("OpenDurable after restart: %v", err)
	}
	if len(rec.Records) == 0 && rec.Snapshot == nil {
		t.Fatal("nothing recovered")
	}
	if got := m2.CoverageSnapshot(); !reflect.DeepEqual(got, wantCoverage) {
		t.Errorf("coverage after recovery:\n got %+v\nwant %+v", got, wantCoverage)
	}
	if got := m2.ShieldSnapshot(); !reflect.DeepEqual(got, wantShields) {
		t.Errorf("shields after recovery:\n got %+v\nwant %+v", got, wantShields)
	}
	if got := m2.AddrOf("s3"); got != "" {
		t.Errorf("unregistered store resurrected with address %q", got)
	}
	// The recovered shield actually decides: a friend sees presence, a
	// stranger does not.
	if _, err := m2.Resolve(context.Background(), &wire.ResolveRequest{
		Path:    "/user[@id='u']/presence",
		Context: policy.Context{Requester: "f", Role: "friend"},
	}); err != nil {
		t.Errorf("recovered shield denies friend: %v", err)
	}
	if _, err := m2.Resolve(context.Background(), &wire.ResolveRequest{
		Path:    "/user[@id='u']/presence",
		Context: policy.Context{Requester: "x", Role: "stranger"},
	}); !errors.Is(err, core.ErrDenied) {
		t.Errorf("recovered shield granted stranger: %v", err)
	}
}

// A heartbeat writes nothing a reopen would not see: one naming another
// address than the directory's is told to re-register, so the address the
// journal brings back is the one the live directory names.
func TestHeartbeatLeavesTheAddressToTheLog(t *testing.T) {
	dir := t.TempDir()
	m1 := newBareMDM(core.Config{})
	if _, err := core.OpenDurable(m1, dir, journal.Options{}); err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	if err := m1.Register("s1", "127.0.0.1:7001", xpath.MustParse("/user[@id='u']/presence")); err != nil {
		t.Fatal(err)
	}
	if hb := m1.Heartbeat(&wire.HeartbeatRequest{Store: "s1", Addr: "127.0.0.1:7002"}); hb.Known {
		t.Error("heartbeat naming a new address answered Known=true")
	}
	live := m1.AddrOf("s1")
	m1.Close()

	m2 := newBareMDM(core.Config{})
	defer m2.Close()
	if _, err := core.OpenDurable(m2, dir, journal.Options{}); err != nil {
		t.Fatalf("OpenDurable after restart: %v", err)
	}
	if got := m2.AddrOf("s1"); got != live {
		t.Errorf("reopened directory names %q, the live one named %q", got, live)
	}
}

// Recovery through a compaction boundary: snapshot + log tail replay to
// the same directory.
func TestDurableRecoveryAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	m1 := newBareMDM(core.Config{})
	if _, err := core.OpenDurable(m1, dir, journal.Options{CompactEvery: 5}); err != nil {
		t.Fatal(err)
	}
	users := []string{"a", "b", "c", "d", "e", "f", "g"}
	for i, u := range users {
		st := coverage.StoreID("s" + u)
		addr := "127.0.0.1:70" + u
		if err := m1.Register(st, addr, xpath.MustParse("/user[@id='"+u+"']/presence")); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := m1.Register(st, addr, xpath.MustParse("/user[@id='"+u+"']/calendar")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if m1.Journal().Stats().Compactions.Load() == 0 {
		t.Fatal("no compaction happened; test is not crossing the boundary")
	}
	want := m1.CoverageSnapshot()
	m1.Close()

	m2 := newBareMDM(core.Config{})
	defer m2.Close()
	if _, err := core.OpenDurable(m2, dir, journal.Options{CompactEvery: 5}); err != nil {
		t.Fatal(err)
	}
	if got := m2.CoverageSnapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("coverage after compacted recovery:\n got %+v\nwant %+v", got, want)
	}
}

// Leases: a silent store is quarantined out of plans after TTL+grace;
// resolves touching it degrade to partial results instead of failing; a
// heartbeat brings it straight back.
func TestLeaseQuarantineDegradesAndRecovers(t *testing.T) {
	const ttl, grace = 50 * time.Millisecond, 30 * time.Millisecond
	m := newBareMDM(core.Config{LeaseTTL: ttl, LeaseGrace: grace})
	defer m.Close()
	if err := m.Register("sA", "127.0.0.1:7001", xpath.MustParse("/user[@id='u']/presence")); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("sB", "127.0.0.1:7002", xpath.MustParse("/user[@id='u']/calendar")); err != nil {
		t.Fatal(err)
	}
	// A friend is granted both sections; the request covers both, so the
	// decision narrows to two grants, one per store.
	for _, sec := range []string{"presence", "calendar"} {
		if err := m.PutRule("u", &wire.PutRuleRequest{Owner: "u", Rule: wire.RulePayload{
			ID: "fr-" + sec, Path: "/user[@id='u']/" + sec, Effect: "permit", Cond: "role=friend",
		}}); err != nil {
			t.Fatal(err)
		}
	}
	req := &wire.ResolveRequest{
		Path:    "/user[@id='u']",
		Owner:   "u",
		Context: policy.Context{Requester: "f", Role: "friend"},
	}

	resp, err := m.Resolve(context.Background(), req)
	if err != nil {
		t.Fatalf("fresh resolve: %v", err)
	}
	if len(resp.Degraded) != 0 {
		t.Fatalf("fresh resolve degraded: %v", resp.Degraded)
	}

	// Keep sA alive, let sB's lease lapse past the grace period.
	deadline := time.Now().Add(ttl + grace + 60*time.Millisecond)
	for time.Now().Before(deadline) {
		m.Heartbeat(&wire.HeartbeatRequest{Store: "sA"})
		time.Sleep(10 * time.Millisecond)
	}

	resp, err = m.Resolve(context.Background(), req)
	if err != nil {
		t.Fatalf("degraded resolve failed outright: %v", err)
	}
	if len(resp.Degraded) != 1 || resp.Degraded[0] != "/user[@id='u']/calendar" {
		t.Fatalf("Degraded = %v, want the calendar grant", resp.Degraded)
	}
	for _, alt := range resp.Alternatives {
		for _, ref := range alt.Referrals {
			if ref.Query.Store == "sB" {
				t.Fatalf("quarantined store still referred: %+v", ref)
			}
		}
	}
	// A grant covered only by the quarantined store is a hard error.
	if _, err := m.Resolve(context.Background(), &wire.ResolveRequest{
		Path:    "/user[@id='u']/calendar",
		Context: policy.Context{Requester: "u"},
	}); !errors.Is(err, core.ErrNoCoverage) {
		t.Fatalf("all-quarantined resolve: %v, want ErrNoCoverage", err)
	}
	if m.Liveness.PlanExclusions.Load() == 0 {
		t.Error("no plan exclusions counted")
	}
	if m.Liveness.DegradedResolves.Load() == 0 {
		t.Error("no degraded resolves counted")
	}

	// The store restarts at a new address and heartbeats: it is told to
	// re-register, and its re-registration brings it straight back at the
	// new address.
	hb := m.Heartbeat(&wire.HeartbeatRequest{Store: "sB", Addr: "127.0.0.1:7099"})
	if hb.Known {
		t.Fatal("heartbeat naming a new address answered Known=true")
	}
	if got := m.AddrOf("sB"); got != "127.0.0.1:7002" {
		t.Errorf("a heartbeat changed the address to %q", got)
	}
	if err := m.Register("sB", "127.0.0.1:7099", xpath.MustParse("/user[@id='u']/calendar")); err != nil {
		t.Fatal(err)
	}
	if got := m.AddrOf("sB"); got != "127.0.0.1:7099" {
		t.Errorf("re-registration address not authoritative: %q", got)
	}
	hb = m.Heartbeat(&wire.HeartbeatRequest{Store: "sB", Addr: "127.0.0.1:7099"})
	if !hb.Known {
		t.Fatal("heartbeat from a registered store answered Known=false")
	}
	if hb.TTLMillis != ttl.Milliseconds() {
		t.Errorf("TTLMillis = %d", hb.TTLMillis)
	}
	resp, err = m.Resolve(context.Background(), req)
	if err != nil {
		t.Fatalf("post-recovery resolve: %v", err)
	}
	if len(resp.Degraded) != 0 {
		t.Fatalf("store still degraded after heartbeat: %v", resp.Degraded)
	}

	// A store the directory has never seen is told to re-register.
	if hb := m.Heartbeat(&wire.HeartbeatRequest{Store: "ghost"}); hb.Known {
		t.Error("heartbeat from unknown store answered Known=true")
	}

	// The health table reports both stores with live leases.
	stats := m.Snapshot()
	if len(stats.Leases) != 2 {
		t.Fatalf("lease table rows = %d, want 2", len(stats.Leases))
	}
	for _, l := range stats.Leases {
		if l.Quarantined {
			t.Errorf("store %s still quarantined in health table", l.Store)
		}
		if l.Registrations == 0 {
			t.Errorf("store %s shows no registrations", l.Store)
		}
	}
}

// Leases disabled (the default): nothing expires, nothing is quarantined,
// stats carry no lease table.
func TestLeasesDisabledByDefault(t *testing.T) {
	m := newBareMDM(core.Config{})
	defer m.Close()
	if err := m.Register("s1", "127.0.0.1:7001", xpath.MustParse("/user[@id='u']/presence")); err != nil {
		t.Fatal(err)
	}
	hb := m.Heartbeat(&wire.HeartbeatRequest{Store: "s1"})
	if !hb.Known || hb.TTLMillis != 0 {
		t.Errorf("heartbeat with leases disabled: %+v", hb)
	}
	if resp, err := m.Resolve(context.Background(), &wire.ResolveRequest{
		Path:    "/user[@id='u']/presence",
		Context: policy.Context{Requester: "u"},
	}); err != nil || len(resp.Degraded) != 0 {
		t.Errorf("resolve with leases disabled: %v %v", err, resp)
	}
	if stats := m.Snapshot(); len(stats.Leases) != 0 {
		t.Errorf("lease table present with leases disabled: %+v", stats.Leases)
	}
}

// Each lease transition is counted once, and logged once as an event
// naming the store, where it is first seen: with no resolve run, the stats
// snapshot's own lease table observes a silent store's quarantine, and a
// heartbeat counts the recovery.
func TestLeaseTransitionsCountedWhereSeen(t *testing.T) {
	events := eventlog.Install(slog.LevelInfo)
	defer events.Remove()
	const ttl, grace = 100 * time.Millisecond, 50 * time.Millisecond
	m := newBareMDM(core.Config{LeaseTTL: ttl, LeaseGrace: grace})
	defer m.Close()
	if err := m.Register("s1", "127.0.0.1:7001", xpath.MustParse("/user[@id='u']/presence")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(ttl + grace + 100*time.Millisecond)

	st := m.Snapshot()
	if st.Quarantines != 1 || st.LeaseRecoveries != 0 {
		t.Fatalf("after silence: quarantines %d, recoveries %d; want 1, 0", st.Quarantines, st.LeaseRecoveries)
	}
	if len(st.Leases) != 1 || !st.Leases[0].Quarantined {
		t.Fatalf("lease table %+v, want s1 quarantined", st.Leases)
	}
	if st := m.Snapshot(); st.Quarantines != 1 {
		t.Fatalf("a second look counted the quarantine again: %d", st.Quarantines)
	}

	m.Heartbeat(&wire.HeartbeatRequest{Store: "s1"})
	st = m.Snapshot()
	if st.Quarantines != 1 || st.LeaseRecoveries != 1 {
		t.Fatalf("after heartbeat: quarantines %d, recoveries %d; want 1, 1", st.Quarantines, st.LeaseRecoveries)
	}
	if st.Leases[0].Quarantined {
		t.Fatalf("lease table %+v, want s1 live", st.Leases)
	}
	if _, ok := events.Await(0, time.Now().Add(2*time.Second), eventlog.Is("store recovered", "store", "s1")); !ok {
		t.Fatal("no store recovered event for s1")
	}
	var seen []string
	for _, ev := range events.Since(0) {
		if ev.Attrs["store"].String() == "s1" {
			seen = append(seen, ev.Message)
		}
	}
	if want := []string{"store quarantined", "store recovered"}; !reflect.DeepEqual(seen, want) {
		t.Errorf("s1's events %q, want %q", seen, want)
	}
}
