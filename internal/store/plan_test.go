package store

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gupster/internal/metrics"
	"gupster/internal/resilience"
	"gupster/internal/token"
	"gupster/internal/wire"
)

// gatedStore is a fake store that holds fetches until n of them are
// pending on it, then answers the first with bad and, a moment later, the
// rest (and every later fetch) with data.
type gatedStore struct {
	n   int
	bad func(c *wire.ServerConn, m *wire.Message)

	mu      sync.Mutex
	conns   map[*wire.ServerConn]bool
	pending []func(bad bool)
	open    bool
}

func (g *gatedStore) ServeWire(c *wire.ServerConn, m *wire.Message) {
	answer := func(bad bool) {
		if bad {
			g.bad(c, m)
			return
		}
		_ = c.Reply(m, wire.FetchResponse{XML: `<presence status="on"/>`, Version: 1})
	}
	g.mu.Lock()
	g.conns[c] = true
	if g.open {
		g.mu.Unlock()
		answer(false)
		return
	}
	g.pending = append(g.pending, answer)
	if len(g.pending) < g.n {
		g.mu.Unlock()
		return
	}
	pending := g.pending
	g.open = true
	g.mu.Unlock()
	go func() {
		pending[0](true)
		// Long enough for the bad reply to be acted on while the others
		// are still in flight on the same connection.
		time.Sleep(50 * time.Millisecond)
		for _, answer := range pending[1:] {
			answer(false)
		}
	}()
}

func (g *gatedStore) connections() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.conns)
}

func newExecutor(t *testing.T) *Executor {
	t.Helper()
	x := &Executor{
		Pool: &wire.Pool{},
		Resilience: resilience.NewGroup(
			resilience.Policy{BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
			resilience.BreakerConfig{}, nil),
		Pipe: &metrics.PipelineStats{},
	}
	t.Cleanup(x.Pool.Close)
	return x
}

// One shed or one denial answered to one fetch must not tear down the
// connection every concurrent fetch to that store shares: the others would
// fail with ErrClosed, count as transient failures and feed the breaker —
// a shed amplified into an outage. The client and the MDM both fetch
// through the executor, so this covers both.
func TestBadReplyKeepsSharedStoreConnection(t *testing.T) {
	const n = 8
	cases := []struct {
		name      string
		bad       func(c *wire.ServerConn, m *wire.Message)
		wantError bool // the fetch answered bad fails for good
	}{
		{"overloaded", func(c *wire.ServerConn, m *wire.Message) {
			_ = c.ReplyError(m, &wire.OverloadedError{RetryAfter: time.Millisecond, Reason: "shed"})
		}, false},
		{"denied", func(c *wire.ServerConn, m *wire.Message) {
			_ = c.ReplyError(m, errors.New("token: bad signature"))
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := &gatedStore{n: n, bad: tc.bad, conns: map[*wire.ServerConn]bool{}}
			srv, err := wire.Serve("127.0.0.1:0", g)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			x := newExecutor(t)

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					ref := wire.Referral{
						Address: srv.Addr(),
						Query:   token.SignedQuery{Store: "s", Path: fmt.Sprintf("/user[@id='u%d']/presence", i)},
					}
					doc, err := x.Fetch(ctx, wire.Alternative{Referrals: []wire.Referral{ref}})
					if err == nil && doc == nil {
						err = errors.New("no document")
					}
					errs[i] = err
				}(i)
			}
			wg.Wait()

			failed := 0
			for i, err := range errs {
				if err == nil {
					continue
				}
				failed++
				var re *wire.RemoteError
				if !tc.wantError || !errors.As(err, &re) {
					t.Errorf("fetch %d: %v", i, err)
				}
			}
			if want := map[bool]int{false: 0, true: 1}[tc.wantError]; failed != want {
				t.Errorf("%d fetches failed, want %d", failed, want)
			}
			if c := g.connections(); c != 1 {
				t.Errorf("store saw %d connections, want the 1 shared one", c)
			}
			snap := x.Resilience.Snapshot()
			if snap.Failures != 0 || snap.BreakerTrips != 0 {
				t.Errorf("a %s reply counted as %d transient failures, %d breaker trips", tc.name, snap.Failures, snap.BreakerTrips)
			}
			for _, b := range snap.Breakers {
				if b.Failures != 0 {
					t.Errorf("breaker %s holds %d failures", b.Endpoint, b.Failures)
				}
			}
		})
	}
}

// A store keeps connections to the sibling stores it was recruited to
// fetch from; Close must release them along with the listener.
func TestServerCloseReleasesSiblingConnections(t *testing.T) {
	released := make(chan struct{})
	sibling, err := wire.Serve("127.0.0.1:0", wire.HandlerFunc(func(c *wire.ServerConn, m *wire.Message) {
		c.OnClose(func() { close(released) })
		_ = c.Reply(m, wire.FetchResponse{XML: `<presence status="on"/>`})
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer sibling.Close()

	srv, cli, signer := startServer(t)
	primary := wire.FetchRequest{Query: signer.Sign(srv.Engine.ID(), "u", mp("/user[@id='u']/calendar"), token.VerbFetch, "r", time.Minute)}
	doc, err := cli.Exec(context.Background(), primary, []wire.Referral{{Address: sibling.Addr()}})
	if err != nil || doc == nil {
		t.Fatalf("exec: %v, %v", doc, err)
	}
	select {
	case <-released:
		t.Fatal("sibling connection closed while the store is serving")
	default:
	}
	srv.Close()
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("store closed, its connection to the sibling store still open")
	}
}
