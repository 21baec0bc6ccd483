package core_test

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gupster/internal/core"
	"gupster/internal/wire"
)

// acceptLog is a listener that keeps every connection it accepts, so a test
// can count them and sever one from the server's side.
type acceptLog struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *acceptLog) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *acceptLog) accepted() []net.Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]net.Conn(nil), l.conns...)
}

// eventually polls cond until it holds or 3 s pass.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(3 * time.Second); !cond(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("never: %s", what)
		}
	}
}

// A subscription is its socket: three subscriptions from one client are
// three connections at the MDM, cancelling one closes only its socket, and
// severing one re-homes only its record — the other two keep delivering
// without subscribing again.
func TestSubscriptionSocketPerRecord(t *testing.T) {
	r := newRig(t, 0)
	r.addStore("s1")
	const path = "/user[@id='alice']/presence"
	r.register("s1", path)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	log := &acceptLog{Listener: ln}
	ws := wire.ServeListener(log, r.server.Mux)
	t.Cleanup(func() { ws.Close() })
	cli, err := core.DialMDM(ws.Addr(), "alice", "self")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })

	before := len(log.accepted())
	var ids [3]uint64
	var got [3]chan wire.Notification
	for i := range ids {
		ch := make(chan wire.Notification, 16)
		got[i] = ch
		if ids[i], err = cli.Subscribe(context.Background(), path, func(n wire.Notification) { ch <- n }); err != nil {
			t.Fatalf("Subscribe %d: %v", i, err)
		}
	}
	if n := len(log.accepted()) - before; n != 3 {
		t.Fatalf("three subscriptions opened %d connections, want one each", n)
	}
	if n := r.mdm.Snapshot().Subscriptions; n != 3 {
		t.Fatalf("MDM holds %d subscriptions, want 3", n)
	}

	// deliver changes the presence and waits for it at every live handler.
	version := 0
	deliver := func(live ...int) {
		t.Helper()
		version++
		status := fmt.Sprintf("s%d", version)
		r.seed("s1", "alice", path, `<presence status="`+status+`"/>`)
		for _, i := range live {
			select {
			case n := <-got[i]:
				if n.SubID != ids[i] || !strings.Contains(n.XML, status) {
					t.Fatalf("subscription %d got handle %d with %q, want handle %d with %s", i, n.SubID, n.XML, ids[i], status)
				}
			case <-time.After(3 * time.Second):
				t.Fatalf("subscription %d never saw %s", i, status)
			}
		}
	}
	deliver(0, 1, 2)

	if err := cli.Unsubscribe(context.Background(), ids[0]); err != nil {
		t.Fatalf("Unsubscribe: %v", err)
	}
	eventually(t, "unsubscribing dropped one subscription", func() bool { return r.mdm.Snapshot().Subscriptions == 2 })
	deliver(1, 2)
	select {
	case n := <-got[0]:
		t.Fatalf("cancelled subscription delivered %+v", n)
	default:
	}

	// Sever subscription 1's socket from the server's side. The record
	// re-homes on one new connection; subscription 2 rides its old one. A
	// subscribe costs one shield check, so the re-home is done when that
	// check is in and the severed subscription is gone.
	evals := r.mdm.Stats.ShieldEvals.Load()
	log.accepted()[before+1].Close()
	eventually(t, "the severed subscription re-homed", func() bool {
		return r.mdm.Stats.ShieldEvals.Load() == evals+1 && r.mdm.Snapshot().Subscriptions == 2
	})
	deliver(1, 2)
	if n := len(log.accepted()) - before; n != 4 {
		t.Fatalf("%d connections after one re-home, want 4", n)
	}
}
