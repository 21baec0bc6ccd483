package federation_test

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"gupster/internal/core"
	"gupster/internal/dirnode"
	"gupster/internal/federation"
	"gupster/internal/journal"
	"gupster/internal/policy"
	"gupster/internal/replication"
	"gupster/internal/schema"
	"gupster/internal/token"
	"gupster/internal/wire"
	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

// constellation starts n quorum-replicated directory nodes through
// dirnode.Start — the §4.2/§5.3 family of servers — and returns them with
// their addresses once one of them leads.
func constellation(t *testing.T, n int) ([]*dirnode.Node, []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	nodes := make([]*dirnode.Node, n)
	for i := range nodes {
		rc := &replication.Config{TTL: 300 * time.Millisecond}
		for j, a := range addrs {
			if j != i {
				rc.Peers = append(rc.Peers, a)
			}
		}
		node, err := dirnode.Start(dirnode.Config{
			MDM:     core.Config{Schema: schema.GUP(), Signer: token.NewSigner(key), GrantTTL: time.Minute},
			DataDir: t.TempDir(), Journal: journal.Options{NoSync: true},
			Replication: rc, Listener: lns[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Close)
		nodes[i] = node
	}
	waitFor(t, "a leader", func() bool {
		for _, node := range nodes {
			if node.Repl.Status().Role == "leader" {
				return true
			}
		}
		return false
	})
	return nodes, addrs
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(15 * time.Millisecond)
	}
}

func TestMirrorClientFailover(t *testing.T) {
	nodes, addrs := constellation(t, 3)
	st := newStore(t, "s1")
	st.Engine.Put("u", xpath.MustParse("/user[@id='u']/presence"), xmltree.MustParse(`<presence/>`))

	mc, err := federation.DialMirrors(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	// The write reaches the leader whichever member the client homed on.
	if err := mc.Call(context.Background(), wire.TypeRegister, &wire.RegisterRequest{
		Store: "s1", Address: st.Addr(), Path: "/user[@id='u']/presence",
	}, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "every replica to hold the registration", func() bool {
		for _, n := range nodes {
			if n.MDM.Registry.StoreCount("s1") != 1 {
				return false
			}
		}
		return true
	})
	req := &wire.ResolveRequest{
		Path:    "/user[@id='u']/presence",
		Context: policy.Context{Requester: "u"},
		Verb:    token.VerbFetch,
	}
	if _, err := mc.Resolve(context.Background(), req); err != nil {
		t.Fatalf("initial resolve: %v", err)
	}

	// Kill the first two members; the client fails over to the third,
	// which answers from its own replica without a quorum behind it.
	nodes[0].Close()
	nodes[1].Close()

	if _, err := mc.Resolve(context.Background(), req); err != nil {
		t.Fatalf("failover resolve: %v", err)
	}
	// Application-level errors do not trigger failover.
	_, err = mc.Resolve(context.Background(), &wire.ResolveRequest{
		Path:    "/user[@id='u']/wallet",
		Context: policy.Context{Requester: "eve"},
	})
	if err == nil || !strings.Contains(err.Error(), "denied") {
		t.Fatalf("expected denial, got %v", err)
	}
}

func TestAllMirrorsDown(t *testing.T) {
	nodes, addrs := constellation(t, 3)
	for _, n := range nodes {
		n.Close()
	}
	if _, err := federation.DialMirrors(addrs); !errors.Is(err, federation.ErrAllMirrorsDown) {
		t.Fatalf("err = %v", err)
	}
	if _, err := federation.DialMirrors(nil); err == nil {
		t.Fatal("empty address list accepted")
	}
}
