package wire

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingListener counts the connections a server accepted.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// serveCounting starts a server on addr ("127.0.0.1:0" for a fresh port)
// whose handler is h.
func serveCounting(t *testing.T, addr string, h HandlerFunc) (*Server, *countingListener) {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	srv := ServeListener(cl, h)
	t.Cleanup(func() { srv.Close() })
	return srv, cl
}

func echo(c *ServerConn, m *Message) { _ = c.Reply(m, Empty{}) }

func TestPoolConcurrentGetsDialOnce(t *testing.T) {
	srv, ln := serveCounting(t, "127.0.0.1:0", echo)
	var p Pool
	defer p.Close()

	const n = 100
	got := make([]*Client, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := p.Get(context.Background(), srv.Addr())
			if err != nil {
				t.Errorf("Get %d: %v", i, err)
				return
			}
			got[i] = c
			if err := c.Call(context.Background(), TypeStats, Empty{}, nil); err != nil {
				t.Errorf("Call %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	for i, c := range got {
		if c != got[0] {
			t.Fatalf("Get %d returned a different connection", i)
		}
	}
	if a := ln.accepted.Load(); a != 1 {
		t.Fatalf("server accepted %d connections for %d concurrent Gets, want 1", a, n)
	}
}

// The eviction rule: an answer is not a link failure. Typed replies, and
// the caller's own deadline passing while the peer is answering other
// calls, leave the multiplexed connection where it is; only the connection
// dying replaces it.
func TestPoolKeepsConnectionAcrossErrorReplies(t *testing.T) {
	release := make(chan struct{})
	slowArrived := make(chan struct{}, 1)
	srv, ln := serveCounting(t, "127.0.0.1:0", func(c *ServerConn, m *Message) {
		switch m.Type {
		case "denied":
			_ = c.ReplyError(m, errors.New("no"))
		case "shed":
			_ = c.ReplyError(m, &OverloadedError{RetryAfter: time.Millisecond, Reason: "busy"})
		case "slow":
			slowArrived <- struct{}{}
			go func() { <-release; _ = c.Reply(m, Empty{}) }()
		default:
			echo(c, m)
		}
	})
	defer close(release)
	var p Pool
	defer p.Close()
	ctx := context.Background()

	first, err := p.Get(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var re *RemoteError
	if err := p.Call(ctx, srv.Addr(), "denied", Empty{}, nil); !errors.As(err, &re) {
		t.Fatalf("denied: %v", err)
	}
	var ov *OverloadedError
	if err := p.Call(ctx, srv.Addr(), "shed", Empty{}, nil); !errors.As(err, &ov) {
		t.Fatalf("shed: %v", err)
	}
	// A slow-but-talking peer: the call's deadline passes, but the peer
	// answered another call in the meantime.
	short, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	slow := make(chan error, 1)
	go func() { slow <- p.Call(short, srv.Addr(), "slow", Empty{}, nil) }()
	<-slowArrived
	if err := p.Call(ctx, srv.Addr(), TypeStats, Empty{}, nil); err != nil {
		t.Fatal(err)
	}
	err = <-slow
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow: %v", err)
	}
	if c, err := p.Get(ctx, srv.Addr()); err != nil || c != first {
		t.Fatalf("connection replaced after error replies (%v)", err)
	}
	if err := p.Call(ctx, srv.Addr(), TypeStats, Empty{}, nil); err != nil {
		t.Fatal(err)
	}
	if a := ln.accepted.Load(); a != 1 {
		t.Fatalf("server accepted %d connections, want 1", a)
	}
}

// The liveness rule: a peer that holds TCP open and answers nothing loses
// its slot to the first call that waits out a whole deadline in silence,
// so the next caller dials afresh instead of paying its own timeout on the
// same dead connection. Cancellation says nothing about the peer and
// leaves the connection alone.
func TestPoolMutePeerLosesItsSlot(t *testing.T) {
	srv, ln := serveCounting(t, "127.0.0.1:0", func(*ServerConn, *Message) {}) // accepts, never answers
	var p Pool
	defer p.Close()

	first, err := p.Get(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	if err := p.Call(canceled, srv.Addr(), TypeStats, Empty{}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled call: %v", err)
	}
	if !first.Alive() {
		t.Fatal("a canceled call marked the connection dead")
	}
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		err := p.Call(ctx, srv.Addr(), TypeStats, Empty{}, nil)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call %d to a mute peer: %v", i, err)
		}
	}
	if first.Alive() {
		t.Fatal("connection to a mute peer still counts as alive after a call expired in silence")
	}
	if a := ln.accepted.Load(); a != 2 {
		t.Fatalf("server accepted %d connections, want 2: the second call dials afresh", a)
	}
}

func TestPoolRedialsAfterPeerRestart(t *testing.T) {
	srv, _ := serveCounting(t, "127.0.0.1:0", echo)
	addr := srv.Addr()
	var p Pool
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	old, err := p.Get(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	for old.Alive() { // the read loop sees the EOF within moments
		if ctx.Err() != nil {
			t.Fatal("connection to a closed server still reported alive")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := p.Get(ctx, addr); err == nil {
		t.Fatal("Get reached a server that is down")
	}

	_, ln := serveCounting(t, addr, echo)
	if err := p.Call(ctx, addr, TypeStats, Empty{}, nil); err != nil {
		t.Fatalf("call after restart: %v", err)
	}
	if c, _ := p.Get(ctx, addr); c == old {
		t.Fatal("pool still holds the dead connection")
	}
	if a := ln.accepted.Load(); a != 1 {
		t.Fatalf("restarted server accepted %d connections, want 1", a)
	}
}

// A dialer that ran out of its own time must not fail the callers that
// queued behind it with time to spare: one of them dials again.
func TestPoolWaiterOutlivesDialersContext(t *testing.T) {
	srv, _ := serveCounting(t, "127.0.0.1:0", echo)
	var dials atomic.Int64
	first := make(chan struct{})
	p := Pool{Dial: func(ctx context.Context, addr string) (*Client, error) {
		if dials.Add(1) == 1 {
			close(first)
			<-ctx.Done() // a dial that hangs until its caller gives up
			return nil, ctx.Err()
		}
		return DialContext(ctx, addr)
	}}
	defer p.Close()

	short, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	dialerErr := make(chan error, 1)
	go func() {
		_, err := p.Get(short, srv.Addr())
		dialerErr <- err
	}()
	<-first
	long, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if _, err := p.Get(long, srv.Addr()); err != nil {
		t.Fatalf("waiter with 5s left failed with the dialer's error: %v", err)
	}
	if err := <-dialerErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("dialer err = %v, want its deadline", err)
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("%d dials, want 2", n)
	}
}

func TestPoolCloseFailsPendingAndLaterGets(t *testing.T) {
	srv, _ := serveCounting(t, "127.0.0.1:0", echo)
	base := runtime.NumGoroutine()

	dialing := make(chan struct{})
	p := Pool{Dial: func(ctx context.Context, addr string) (*Client, error) {
		if addr == "hang" {
			close(dialing)
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return DialContext(ctx, addr)
	}}
	if err := p.Call(context.Background(), srv.Addr(), TypeStats, Empty{}, nil); err != nil {
		t.Fatal(err)
	}
	// One Get dialing, one waiting behind it; neither context ever ends.
	errs := make(chan error, 2)
	go func() { _, err := p.Get(context.Background(), "hang"); errs <- err }()
	<-dialing
	go func() { _, err := p.Get(context.Background(), "hang"); errs <- err }()
	time.Sleep(10 * time.Millisecond) // let the second one queue (either order passes)

	p.Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("pending Get: %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("pending Get still blocked after Close")
		}
	}
	if _, err := p.Get(context.Background(), srv.Addr()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close: %v, want ErrClosed", err)
	}
	p.Close() // idempotent

	// Every client read loop the pool started is gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the pool existed", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestPoolEvict(t *testing.T) {
	srv, ln := serveCounting(t, "127.0.0.1:0", echo)
	var p Pool
	defer p.Close()
	ctx := context.Background()
	old, err := p.Get(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	p.Evict(srv.Addr())
	p.Evict("never-dialed")
	if old.Alive() {
		t.Fatal("evicted connection still alive")
	}
	if err := p.Call(ctx, srv.Addr(), TypeStats, Empty{}, nil); err != nil {
		t.Fatal(err)
	}
	if a := ln.accepted.Load(); a != 2 {
		t.Fatalf("server accepted %d connections, want 2", a)
	}
}
