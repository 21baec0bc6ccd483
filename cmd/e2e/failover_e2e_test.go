package e2e

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gupster/internal/federation"
	"gupster/internal/policy"
	"gupster/internal/token"
	"gupster/internal/wire"
)

// replRole asks one member for its replication status; "" when the member
// is unreachable or not replicated.
func replRole(addr string) (role, leaderID string) {
	conn, err := wire.Dial(addr)
	if err != nil {
		return "", ""
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	var st wire.StatsResponse
	if err := conn.Call(ctx, wire.TypeStats, wire.Empty{}, &st); err != nil || st.Repl == nil {
		return "", ""
	}
	return st.Repl.Role, st.Repl.LeaderID
}

// waitConstellationLeader polls the given members until one reports itself
// leader; returns its index or -1. Killed members are passed as "".
func waitConstellationLeader(addrs []string, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for i, a := range addrs {
			if a == "" {
				continue
			}
			if role, _ := replRole(a); role == "leader" {
				return i
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return -1
}

// The acceptance test for the HA directory: a 3-member quorum-replicated
// constellation of real gupsterd processes carries a registration storm,
// the leader is kill -9ed mid-storm, and a follower must take over within
// one election TTL with every quorum-acknowledged registration intact and
// resolves resuming against the survivors.
func TestChaosLeaderFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches real processes")
	}
	const key = "e2e-failover-key"
	const electionTTL = time.Second

	ports := freePorts(t, 4)
	addrs, storeAddr := ports[:3:3], ports[3]
	daemons := make([]*exec.Cmd, 3)
	for i := range addrs {
		args := []string{
			"-listen", addrs[i], "-key", key,
			"-data-dir", t.TempDir(),
			"-replication-quorum", "2",
			"-election-ttl", electionTTL.String(),
		}
		for j, p := range addrs {
			if j != i {
				args = append(args, "-peers", p)
			}
		}
		daemons[i] = startDaemon(t, "gupsterd", args...)
	}
	for _, a := range addrs {
		waitFor(t, a)
	}
	leader := waitConstellationLeader(addrs, 20*electionTTL)
	if leader < 0 {
		t.Fatal("constellation never elected a leader")
	}

	// The store registers via a FOLLOWER: its registrar must chase the
	// not-leader redirect to the real leader transparently.
	profile := filepath.Join(binDir, "gail.xml")
	if err := os.WriteFile(profile, []byte(
		`<user id="gail"><presence status="available"/></user>`,
	), 0o644); err != nil {
		t.Fatal(err)
	}
	startDaemon(t, "datastored",
		"-id", "gup.ha.example", "-listen", storeAddr,
		"-mdm", addrs[(leader+1)%3], "-key", key,
		"-load", profile, "-user", "gail",
		"-register", "/user[@id='gail']/presence",
		"-heartbeat", "1h", // survival must come from replication, not a heartbeat
	)
	waitFor(t, storeAddr)
	deadline := time.Now().Add(10 * time.Second)
	for {
		out, err := gupctl(t, addrs[leader], "gail", "self", "stats")
		if err == nil && strings.Contains(out, "registrations: 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("redirected registration never appeared; stats:\n%s (%v)", out, err)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// The registration storm: four writers hammer the constellation
	// through the failover client. Only nil-error calls are recorded —
	// each of those was acknowledged by a quorum and may not be lost.
	mirrors, err := federation.DialMirrors(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer mirrors.Close()
	type reg struct{ user, path string }
	var ackedMu sync.Mutex
	var acked []reg
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Each registration claims presence coverage for a fresh
				// user — schema-valid, so it also resolves afterwards.
				user := fmt.Sprintf("chaos-g%d-%d", g, i)
				path := fmt.Sprintf("/user[@id='%s']/presence", user)
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				err := mirrors.Call(ctx, wire.TypeRegister, &wire.RegisterRequest{
					Store: "gup.ha.example", Address: storeAddr, Path: path,
				}, nil)
				cancel()
				if err == nil {
					ackedMu.Lock()
					acked = append(acked, reg{user, path})
					ackedMu.Unlock()
				}
			}
		}(g)
	}

	// kill -9 the leader mid-storm: no shutdown hook, no journal flush
	// beyond what was already durable, no goodbye to the followers.
	time.Sleep(300 * time.Millisecond)
	daemons[leader].Process.Kill()
	daemons[leader].Wait()
	killedAt := time.Now()
	survivors := append([]string(nil), addrs...)
	survivors[leader] = ""

	newLeader := waitConstellationLeader(survivors, 10*electionTTL)
	failover := time.Since(killedAt)
	if newLeader < 0 {
		t.Fatal("survivors never elected a replacement leader")
	}
	if newLeader == leader {
		t.Fatalf("dead member %d still reports leadership", leader)
	}
	t.Logf("failover: member %d -> member %d in %s", leader, newLeader, failover)
	if failover >= electionTTL {
		t.Errorf("failover took %s, want < one election TTL (%s)", failover, electionTTL)
	}

	// Let the storm run on against the new leader, then stop it.
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	ackedMu.Lock()
	n := len(acked)
	ackedMu.Unlock()
	if n == 0 {
		t.Fatal("storm acked no registrations — nothing to audit")
	}
	t.Logf("storm: %d quorum-acked registrations", n)

	// Zero lost acked registrations: every path a quorum acknowledged
	// must still resolve against whoever leads now. The new leader may
	// still be draining its apply queue, so the first path polls.
	resolve := func(r reg) error {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		var resp wire.ResolveResponse
		return mirrors.Call(ctx, wire.TypeResolve, &wire.ResolveRequest{
			Path:    r.path,
			Context: policy.Context{Requester: r.user},
			Verb:    token.VerbFetch,
		}, &resp)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		if err := resolve(acked[0]); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("first acked registration never resolved after failover: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	lost := 0
	for _, r := range acked {
		if err := resolve(r); err != nil {
			lost++
			t.Errorf("acked registration lost in failover: %s: %v", r.path, err)
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d quorum-acked registrations lost", lost, n)
	}

	// Reads resume through the surviving constellation: the store's
	// pre-kill coverage referral still chases to real data.
	if out, err := gupctl(t, survivors[newLeader], "gail", "self", "get", "/user[@id='gail']/presence"); err != nil ||
		!strings.Contains(out, `status="available"`) {
		t.Fatalf("owner get after failover: %v\n%s", err, out)
	}

	// The operator view agrees: `gupctl replication` at a survivor names
	// the new leader and shows a quorum of 2.
	out, err := gupctl(t, survivors[newLeader], "gail", "self", "replication")
	if err != nil || !strings.Contains(out, "role=leader") {
		t.Fatalf("gupctl replication after failover: %v\n%s", err, out)
	}
	if !strings.Contains(out, "quorum 2") {
		t.Errorf("replication status lacks the quorum:\n%s", out)
	}
}
