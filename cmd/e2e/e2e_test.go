// Package e2e drives the real executables — gupsterd, datastored, gupctl —
// as separate processes against each other, exactly as the README's
// deployment section describes. It is the outermost integration layer: if
// these tests pass, a user following the README gets a working federation.
package e2e

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "gupster-e2e-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	for _, name := range []string{"gupsterd", "datastored", "gupctl"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, name), "gupster/cmd/"+name)
		cmd.Dir = repoRoot()
		if out, err := cmd.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "building %s: %v\n%s", name, err, out)
			os.RemoveAll(dir)
			os.Exit(1)
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func repoRoot() string {
	wd, _ := os.Getwd()
	return filepath.Dir(filepath.Dir(wd)) // cmd/e2e → repo root
}

// freePorts picks n distinct loopback ports by listening on all of them at
// once, then frees them for the daemons to take.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// output collects a daemon's stdout and stderr; it may be read while the
// daemon runs.
type output struct {
	mu sync.Mutex
	b  strings.Builder
}

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.b.Write(p)
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.b.String()
}

// outputOf is what a daemon started by startDaemon has printed so far.
func outputOf(cmd *exec.Cmd) string { return cmd.Stdout.(*output).String() }

// startDaemon launches a binary and kills it at cleanup.
func startDaemon(t *testing.T, name string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, name), args...)
	out := &output{}
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
		if t.Failed() {
			t.Logf("%s output:\n%s", name, out.String())
		}
	})
	return cmd
}

// waitFor polls until a TCP endpoint accepts connections.
func waitFor(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
			c.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s never came up", addr)
}

func gupctl(t *testing.T, mdm, identity, role string, args ...string) (string, error) {
	t.Helper()
	full := append([]string{"-mdm", mdm, "-as", identity, "-role", role}, args...)
	out, err := exec.Command(filepath.Join(binDir, "gupctl"), full...).CombinedOutput()
	return string(out), err
}

func TestBinariesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches real processes")
	}
	const key = "e2e-shared-key"
	ports := freePorts(t, 2)
	mdmAddr, storeAddr := ports[0], ports[1]

	startDaemon(t, "gupsterd", "-listen", mdmAddr, "-key", key)
	waitFor(t, mdmAddr)

	// Seed a profile file for the store to load.
	profile := filepath.Join(binDir, "alice.xml")
	if err := os.WriteFile(profile, []byte(
		`<user id="alice"><presence status="available"/><calendar><event id="e1" day="Mon" start="09:00" end="10:00"><title>standup</title></event></calendar></user>`,
	), 0o644); err != nil {
		t.Fatal(err)
	}
	startDaemon(t, "datastored",
		"-id", "gup.portal.example", "-listen", storeAddr,
		"-mdm", mdmAddr, "-key", key,
		"-load", profile, "-user", "alice",
		"-register", "/user[@id='alice']/presence",
		"-register", "/user[@id='alice']/calendar",
	)
	waitFor(t, storeAddr)

	// Registration is asynchronous after startup; poll the MDM stats.
	deadline := time.Now().Add(10 * time.Second)
	for {
		out, err := gupctl(t, mdmAddr, "alice", "self", "stats")
		if err == nil && strings.Contains(out, "registrations: 2") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("registrations never appeared; stats:\n%s (%v)", out, err)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// The owner fetches her presence through referrals.
	out, err := gupctl(t, mdmAddr, "alice", "self", "get", "/user[@id='alice']/presence")
	if err != nil || !strings.Contains(out, `status="available"`) {
		t.Fatalf("get presence: %v\n%s", err, out)
	}

	// The referral plan is inspectable.
	out, err = gupctl(t, mdmAddr, "alice", "self", "resolve", "/user[@id='alice']/calendar")
	if err != nil || !strings.Contains(out, "gup.portal.example") {
		t.Fatalf("resolve: %v\n%s", err, out)
	}

	// A stranger is denied until a rule permits them.
	out, err = gupctl(t, mdmAddr, "bob", "family", "get", "/user[@id='alice']/presence")
	if err == nil {
		t.Fatalf("stranger got presence:\n%s", out)
	}
	out, err = gupctl(t, mdmAddr, "alice", "self",
		"put-rule", "alice", "fam", "permit", "/user[@id='alice']/presence", "role=family")
	if err != nil {
		t.Fatalf("put-rule: %v\n%s", err, out)
	}
	out, err = gupctl(t, mdmAddr, "bob", "family", "get", "/user[@id='alice']/presence")
	if err != nil || !strings.Contains(out, "presence") {
		t.Fatalf("family get after rule: %v\n%s", err, out)
	}

	// Updates round-trip through the binaries.
	upd := filepath.Join(binDir, "presence.xml")
	os.WriteFile(upd, []byte(`<presence status="busy"/>`), 0o644)
	out, err = gupctl(t, mdmAddr, "alice", "self", "update", "/user[@id='alice']/presence", upd)
	if err != nil || !strings.Contains(out, "updated 1 store") {
		t.Fatalf("update: %v\n%s", err, out)
	}
	out, err = gupctl(t, mdmAddr, "alice", "self", "get", "/user[@id='alice']/presence")
	if err != nil || !strings.Contains(out, `status="busy"`) {
		t.Fatalf("get after update: %v\n%s", err, out)
	}

	// The disclosure ledger recorded everything.
	out, err = gupctl(t, mdmAddr, "alice", "self", "provenance-summary")
	if err != nil || !strings.Contains(out, "bob") {
		t.Fatalf("provenance: %v\n%s", err, out)
	}
	if !strings.Contains(out, "denials=1") {
		t.Errorf("bob's pre-rule denial not recorded:\n%s", out)
	}
}

// One traced chaining request through the real binaries: the trace ID that
// gupctl prints must resolve, at the MDM's trace directory, to a span tree
// covering all three hops — client (0), MDM (1), store (2).
func TestTracedChainingThroughBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches real processes")
	}
	const key = "e2e-trace-key"
	ports := freePorts(t, 2)
	mdmAddr, storeAddr := ports[0], ports[1]

	startDaemon(t, "gupsterd", "-listen", mdmAddr, "-key", key)
	waitFor(t, mdmAddr)

	profile := filepath.Join(binDir, "carol.xml")
	if err := os.WriteFile(profile, []byte(
		`<user id="carol"><presence status="available"/></user>`,
	), 0o644); err != nil {
		t.Fatal(err)
	}
	startDaemon(t, "datastored",
		"-id", "gup.traced.example", "-listen", storeAddr,
		"-mdm", mdmAddr, "-key", key,
		"-load", profile, "-user", "carol",
		"-register", "/user[@id='carol']/presence",
	)
	waitFor(t, storeAddr)

	deadline := time.Now().Add(10 * time.Second)
	for {
		out, err := gupctl(t, mdmAddr, "carol", "self", "stats")
		if err == nil && strings.Contains(out, "registrations: 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("registration never appeared; stats:\n%s (%v)", out, err)
		}
		time.Sleep(100 * time.Millisecond)
	}

	out, err := gupctl(t, mdmAddr, "carol", "self", "get-via", "chaining", "/user[@id='carol']/presence")
	if err != nil || !strings.Contains(out, `status="available"`) {
		t.Fatalf("get-via chaining: %v\n%s", err, out)
	}
	m := regexp.MustCompile(`trace ([0-9a-f]+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no trace ID on stderr:\n%s", out)
	}
	id := m[1]

	// The client's own spans arrive at the directory on a one-way report
	// frame; poll until the tree is complete.
	var tree string
	for {
		tree, err = gupctl(t, mdmAddr, "carol", "self", "trace", id)
		if err == nil &&
			strings.Contains(tree, "[client hop0]") &&
			strings.Contains(tree, "[mdm hop1]") &&
			strings.Contains(tree, "[store hop2]") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("span tree never completed (want client hop0, mdm hop1, store hop2):\n%s (%v)", tree, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	// The per-hop aggregates surface in stats.
	out, err = gupctl(t, mdmAddr, "carol", "self", "stats")
	if err != nil || !strings.Contains(out, "mdm.resolve") {
		t.Fatalf("stats lacks per-hop latencies: %v\n%s", err, out)
	}
}

// The acceptance test for the durable directory: kill -9 the MDM mid-
// workload and restart it on the same -data-dir. Every registration and
// shield rule must come back from the journal alone — the store's
// heartbeat interval is set to an hour so re-registration cannot paper
// over a recovery hole.
func TestChaosKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches real processes")
	}
	const key = "e2e-chaos-key"
	ports := freePorts(t, 2)
	mdmAddr, storeAddr := ports[0], ports[1]
	dataDir := t.TempDir()

	mdmArgs := []string{"-listen", mdmAddr, "-key", key, "-data-dir", dataDir, "-lease-ttl", "1h"}
	daemon := startDaemon(t, "gupsterd", mdmArgs...)
	waitFor(t, mdmAddr)

	profile := filepath.Join(binDir, "dora.xml")
	if err := os.WriteFile(profile, []byte(
		`<user id="dora"><presence status="available"/><calendar/></user>`,
	), 0o644); err != nil {
		t.Fatal(err)
	}
	startDaemon(t, "datastored",
		"-id", "gup.durable.example", "-listen", storeAddr,
		"-mdm", mdmAddr, "-key", key,
		"-load", profile, "-user", "dora",
		"-register", "/user[@id='dora']/presence",
		"-register", "/user[@id='dora']/calendar",
		"-heartbeat", "1h", // recovery must come from the journal, not a heartbeat
	)
	waitFor(t, storeAddr)

	deadline := time.Now().Add(10 * time.Second)
	for {
		out, err := gupctl(t, mdmAddr, "dora", "self", "stats")
		if err == nil && strings.Contains(out, "registrations: 2") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("registrations never appeared; stats:\n%s (%v)", out, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if out, err := gupctl(t, mdmAddr, "dora", "self",
		"put-rule", "dora", "fam", "permit", "/user[@id='dora']/presence", "role=family"); err != nil {
		t.Fatalf("put-rule: %v\n%s", err, out)
	}
	if out, err := gupctl(t, mdmAddr, "eve", "family", "get", "/user[@id='dora']/presence"); err != nil {
		t.Fatalf("family get before crash: %v\n%s", err, out)
	}

	// kill -9: no shutdown hook runs, the journal is all that survives.
	daemon.Process.Kill()
	daemon.Wait()

	startDaemon(t, "gupsterd", mdmArgs...)
	waitFor(t, mdmAddr)

	// Zero re-registration: the store heartbeats hourly, so everything the
	// restarted MDM knows came off disk. Poll only for the listener; the
	// directory is recovered before it opens.
	out, err := gupctl(t, mdmAddr, "dora", "self", "stats")
	if err != nil {
		t.Fatalf("stats after restart: %v\n%s", err, out)
	}
	if !strings.Contains(out, "registrations: 2") {
		t.Fatalf("registrations lost in the crash:\n%s", out)
	}

	// The recovered directory actually serves: referrals reach the still-
	// running store, and the shield rule still decides.
	if out, err := gupctl(t, mdmAddr, "dora", "self", "get", "/user[@id='dora']/presence"); err != nil ||
		!strings.Contains(out, `status="available"`) {
		t.Fatalf("owner get after recovery: %v\n%s", err, out)
	}
	if out, err := gupctl(t, mdmAddr, "eve", "family", "get", "/user[@id='dora']/presence"); err != nil {
		t.Fatalf("shield rule lost in the crash: %v\n%s", err, out)
	}
	if out, err := gupctl(t, mdmAddr, "mallory", "stranger", "get", "/user[@id='dora']/presence"); err == nil {
		t.Fatalf("stranger got presence after recovery:\n%s", out)
	}

	// gupctl health reports the recovery and the store's lease.
	out, err = gupctl(t, mdmAddr, "dora", "self", "health")
	if err != nil || !strings.Contains(out, "recovered") {
		t.Fatalf("health lacks journal recovery: %v\n%s", err, out)
	}
	if !strings.Contains(out, "gup.durable.example") {
		t.Fatalf("health lacks the store's lease:\n%s", out)
	}
}

// A sharded constellation through the real binaries — the flags no other
// test here passes: two -shard-of shards gossiping at -gossip-interval and
// one data-less -router. The store registers through the router, gupctl
// reads through the router and through the shard that does not hold the
// owner (the redirect is chased), and the operator views — shard-map and
// health — show the map and both shards alive.
func TestShardedConstellationThroughBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches real processes")
	}
	const key = "e2e-shard-key"
	ports := freePorts(t, 4)
	shards, routerAddr, storeAddr := ports[:2:2], ports[2], ports[3]
	shardMap := "s1=" + shards[0] + ",s2=" + shards[1]

	for i, addr := range shards {
		startDaemon(t, "gupsterd", "-listen", addr, "-key", key,
			"-shard-of", fmt.Sprintf("s%d", i+1), "-shard-map", shardMap,
			"-gossip-interval", "100ms")
	}
	startDaemon(t, "gupsterd", "-listen", routerAddr, "-router", "-shard-map", shardMap)
	for _, addr := range append(shards, routerAddr) {
		waitFor(t, addr)
	}

	profile := filepath.Join(binDir, "erin.xml")
	if err := os.WriteFile(profile, []byte(
		`<user id="erin"><presence status="sharded"/></user>`,
	), 0o644); err != nil {
		t.Fatal(err)
	}
	startDaemon(t, "datastored",
		"-id", "gup.sharded.example", "-listen", storeAddr,
		"-mdm", routerAddr, "-key", key,
		"-load", profile, "-user", "erin",
		"-register", "/user[@id='erin']/presence",
	)
	waitFor(t, storeAddr)

	// Registration is asynchronous after startup; it lands on exactly one
	// shard, whichever the ring assigns erin to.
	registrations := func(addr string) int {
		out, err := gupctl(t, addr, "erin", "self", "stats")
		if err != nil {
			return -1
		}
		m := regexp.MustCompile(`registrations: (\d+)`).FindStringSubmatch(out)
		if m == nil {
			return -1
		}
		n, _ := strconv.Atoi(m[1])
		return n
	}
	home, away := "", ""
	deadline := time.Now().Add(10 * time.Second)
	for home == "" {
		for i, addr := range shards {
			if registrations(addr) == 1 {
				home, away = addr, shards[1-i]
			}
		}
		if home == "" && time.Now().After(deadline) {
			t.Fatal("the registration sent through the router reached neither shard")
		}
		time.Sleep(100 * time.Millisecond)
	}
	if n := registrations(away); n != 0 {
		t.Fatalf("the shard not owning erin holds %d registrations", n)
	}

	for name, addr := range map[string]string{"router": routerAddr, "home shard": home, "wrong shard": away} {
		out, err := gupctl(t, addr, "erin", "self", "get", "/user[@id='erin']/presence")
		if err != nil || !strings.Contains(out, `status="sharded"`) {
			t.Fatalf("get via the %s: %v\n%s", name, err, out)
		}
	}

	out, err := gupctl(t, routerAddr, "erin", "self", "shard-map")
	if err != nil || !strings.Contains(out, "shard map v1 (2 shards)") ||
		!strings.Contains(out, shards[0]) || !strings.Contains(out, shards[1]) {
		t.Fatalf("shard-map via the router: %v\n%s", err, out)
	}
	out, err = gupctl(t, away, "erin", "self", "health")
	if err != nil || !strings.Contains(out, "gossip: shard s") || strings.Count(out, " alive ") != 2 {
		t.Fatalf("health lacks the gossip view with two alive members: %v\n%s", err, out)
	}
}
