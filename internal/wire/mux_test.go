package wire_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gupster/internal/overload"
	"gupster/internal/wire"
)

type echoReq struct {
	Text string `json:"text"`
}

// serveMux serves x and returns a client of it whose notifications — the
// shape a wrongly answered one-way frame takes — fail the test.
func serveMux(t *testing.T, x *wire.Mux) *wire.Client {
	t.Helper()
	srv, err := wire.Serve("127.0.0.1:0", x)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	cli.OnNotify(func(msgType string, payload []byte) {
		t.Errorf("unsolicited %q frame: %s", msgType, payload)
	})
	return cli
}

func echoMux(calls *atomic.Int64) *wire.Mux {
	x := &wire.Mux{}
	wire.Route(x, "echo", func(_ context.Context, req *echoReq) (echoReq, error) {
		calls.Add(1)
		return *req, nil
	})
	return x
}

func ctx5s(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestMuxRoutesDecodesAndReplies(t *testing.T) {
	var calls atomic.Int64
	cli := serveMux(t, echoMux(&calls))
	var got echoReq
	if err := cli.Call(ctx5s(t), "echo", echoReq{Text: "hi"}, &got); err != nil || got.Text != "hi" {
		t.Fatalf("echo = %+v, %v", got, err)
	}

	var re *wire.RemoteError
	if err := cli.Call(ctx5s(t), "nope", echoReq{}, nil); !errors.As(err, &re) || !strings.Contains(re.Msg, `unknown message type "nope"`) {
		t.Fatalf("unknown type: got %v, want a RemoteError naming it", err)
	}
	before := calls.Load()
	if err := cli.Call(ctx5s(t), "echo", "not an object", nil); !errors.As(err, &re) {
		t.Fatalf("undecodable payload: got %v, want a RemoteError", err)
	}
	if err := cli.Call(ctx5s(t), "echo", nil, nil); !errors.As(err, &re) {
		t.Fatalf("missing payload: got %v, want a RemoteError", err)
	}
	if calls.Load() != before {
		t.Fatal("route function ran on a frame that failed to decode")
	}
}

func TestMuxEmptyRequestNeedsNoPayload(t *testing.T) {
	x := &wire.Mux{}
	wire.Route(x, wire.TypeStats, func(context.Context, *wire.Empty) (echoReq, error) {
		return echoReq{Text: "stats"}, nil
	})
	cli := serveMux(t, x)
	for _, req := range []any{nil, wire.Empty{}, "anything"} {
		var got echoReq
		if err := cli.Call(ctx5s(t), wire.TypeStats, req, &got); err != nil || got.Text != "stats" {
			t.Fatalf("payload %#v: %+v, %v", req, got, err)
		}
	}
}

func TestMuxPanicAnswersAndKeepsServing(t *testing.T) {
	var calls atomic.Int64
	x := echoMux(&calls)
	wire.Route(x, "boom", func(context.Context, *wire.Empty) (wire.Empty, error) { panic("boom") })
	cli := serveMux(t, x)
	var re *wire.RemoteError
	if err := cli.Call(ctx5s(t), "boom", nil, nil); !errors.As(err, &re) || re.Msg != "internal error" {
		t.Fatalf("panicking route: got %v, want RemoteError internal error", err)
	}
	if err := cli.Call(ctx5s(t), "echo", echoReq{}, nil); err != nil {
		t.Fatalf("connection did not survive the panic: %v", err)
	}
}

func TestMuxBudgetIsTheRoutesDeadline(t *testing.T) {
	x := &wire.Mux{}
	wire.Route(x, "left", func(ctx context.Context, _ *wire.Empty) (int64, error) {
		dl, ok := ctx.Deadline()
		if !ok {
			return -1, nil
		}
		return time.Until(dl).Milliseconds(), nil
	})
	cli := serveMux(t, x)
	var left int64
	if err := cli.Call(context.Background(), "left", nil, &left); err != nil || left != -1 {
		t.Fatalf("no budget: route saw %d ms left, %v; want no deadline", left, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := cli.Call(ctx, "left", nil, &left); err != nil || left < 1000 || left > 2000 {
		t.Fatalf("2 s budget: route saw %d ms left, %v", left, err)
	}
}

// TestMuxOneWayFramesGetNoAnswer: whatever goes wrong with a one-way frame
// — unknown type, undecodable, refused, failed — nothing comes back, and
// one that is served is still served.
func TestMuxOneWayFramesGetNoAnswer(t *testing.T) {
	var calls atomic.Int64
	x := echoMux(&calls)
	wire.Route(x, "fail", func(context.Context, *wire.Empty) (wire.Empty, error) {
		return wire.Empty{}, errors.New("failed")
	})
	wire.Route(x, "shed", func(context.Context, *wire.Empty) (wire.Empty, error) { return wire.Empty{}, nil })
	x.Admit = func(_ context.Context, msgType string) (func(), error) {
		if msgType == "shed" {
			return nil, &wire.OverloadedError{Reason: "test"}
		}
		return func() {}, nil
	}
	cli := serveMux(t, x) // its OnNotify fails the test on any answer
	for typ, payload := range map[string]any{"nope": echoReq{}, "echo": "not an object", "fail": nil, "shed": nil} {
		if err := cli.Send(ctx5s(t), typ, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.Send(ctx5s(t), "echo", echoReq{Text: "one-way"}); err != nil {
		t.Fatal(err)
	}
	// Frames are served in order, so the call's reply arriving means every
	// one-way frame before it has been served.
	if err := cli.Call(ctx5s(t), "echo", echoReq{}, nil); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("echo ran %d times, want 2 (the good one-way frame and the call)", calls.Load())
	}
}

// TestMuxShedIsTheControllersVerdict: with the slot held and the queue
// full, the controller's refusal reaches the caller as an OverloadedError
// carrying the controller's hint, the route never runs, and the refusal
// releases nothing — the slot and the queued waiter are still there.
func TestMuxShedIsTheControllersVerdict(t *testing.T) {
	ctl := overload.New(overload.Config{MaxConcurrency: 1, QueueDepth: 1, QueueWait: time.Minute}, nil)
	var calls atomic.Int64
	x := &wire.Mux{Admit: ctl.Admit}
	// A normal-class frame: an incoming high-class one would displace the
	// queued waiter and wait in its place.
	wire.Route(x, wire.TypeChanged, func(context.Context, *echoReq) (wire.Empty, error) {
		calls.Add(1)
		return wire.Empty{}, nil
	})
	cli := serveMux(t, x)

	held, err := ctl.Acquire(context.Background(), overload.ClassHigh)
	if err != nil {
		t.Fatal(err)
	}
	waiterCtx, stopWaiter := context.WithCancel(context.Background())
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		if release, err := ctl.Acquire(waiterCtx, overload.ClassHigh); err == nil {
			release()
		}
	}()
	for {
		if _, queued := ctl.InUse(); queued == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	want := ctl.RetryAfter(overload.ClassNormal)
	err = cli.Call(ctx5s(t), wire.TypeChanged, echoReq{}, nil)
	var ov *wire.OverloadedError
	if !errors.As(err, &ov) {
		t.Fatalf("got %v (%T), want *wire.OverloadedError", err, err)
	}
	if ov.RetryAfter != want || ov.Reason != "admission queue full" {
		t.Fatalf("shed = %s / %q, want the controller's %s / admission queue full", ov.RetryAfter, ov.Reason, want)
	}
	if calls.Load() != 0 {
		t.Fatal("a shed frame reached its route")
	}
	if executing, queued := ctl.InUse(); executing != 1 || queued != 1 {
		t.Fatalf("after the shed: %d executing, %d queued; want 1 and 1", executing, queued)
	}
	stopWaiter()
	<-waiterDone
	held()
	if err := cli.Call(ctx5s(t), wire.TypeChanged, echoReq{}, nil); err != nil || calls.Load() != 1 {
		t.Fatalf("after release: %v, %d calls", err, calls.Load())
	}
	// The slot is released once the reply is written, a moment after the
	// caller has it.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		executing, queued := ctl.InUse()
		if executing == 0 && queued == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("at rest: %d executing, %d queued", executing, queued)
		}
	}
}

// TestMuxTypedErrorsSurviveHops: each typed error a route returns arrives
// as the same typed error with the same fields, and arrives unchanged when
// a second hop's route returns — wrapped — what its own call got.
func TestMuxTypedErrorsSurviveHops(t *testing.T) {
	mp := &wire.ShardMap{Version: 4, Epoch: 2, Shards: []wire.ShardInfo{{ID: "a", Addr: "10.0.0.1:7000"}, {ID: "b", Addr: "10.0.0.2:7000"}}}
	typed := map[string]error{
		"overloaded":  &wire.OverloadedError{Op: "ask", RetryAfter: 750 * time.Millisecond, Reason: "admission queue full"},
		"not-leader":  &wire.NotLeaderError{Op: "ask", LeaderAddr: "10.0.0.2:7000", LeaderID: "n2", Term: 9},
		"wrong-shard": &wire.WrongShardError{Op: "ask", Owner: "alice", ShardID: "b", Addr: "10.0.0.2:7000", Members: []string{"10.0.0.2:7000"}, Map: mp},
	}
	origin := &wire.Mux{}
	wire.Route(origin, "ask", func(_ context.Context, req *echoReq) (wire.Empty, error) {
		return wire.Empty{}, typed[req.Text]
	})
	direct := serveMux(t, origin)

	relay := &wire.Mux{}
	wire.Route(relay, "ask", func(ctx context.Context, req *echoReq) (wire.Empty, error) {
		if err := direct.Call(ctx, "ask", req, nil); err != nil {
			return wire.Empty{}, fmt.Errorf("relay: %w", err)
		}
		return wire.Empty{}, nil
	})
	relayed := serveMux(t, relay)

	for name, want := range typed {
		for hops, cli := range map[string]*wire.Client{"one hop": direct, "two hops": relayed} {
			err := cli.Call(ctx5s(t), "ask", echoReq{Text: name}, nil)
			if reflect.TypeOf(err) != reflect.TypeOf(want) || !reflect.DeepEqual(err, want) {
				t.Errorf("%s over %s: got %#v, want %#v", name, hops, err, want)
			}
		}
	}
}

func TestMuxFallbackAndWrap(t *testing.T) {
	var calls atomic.Int64
	inner := echoMux(&calls)
	inner.Wrap("echo", func(ctx context.Context, _ *wire.ServerConn, m *wire.Message, next func(context.Context) (any, error)) (any, error) {
		var peek echoReq
		if err := wire.Unmarshal(m.Payload, &peek); err != nil || strings.Contains(peek.Text, "refuse") {
			return nil, errors.New("refused")
		}
		resp, err := next(ctx)
		if r, ok := resp.(echoReq); ok {
			r.Text += " (wrapped)"
			resp = r
		}
		return resp, err
	})
	outer := &wire.Mux{Fallback: inner}
	wire.Route(outer, "outer", func(context.Context, *wire.Empty) (echoReq, error) { return echoReq{Text: "outer"}, nil })
	cli := serveMux(t, outer)

	var got echoReq
	if err := cli.Call(ctx5s(t), "outer", nil, &got); err != nil || got.Text != "outer" {
		t.Fatalf("outer route: %+v, %v", got, err)
	}
	if err := cli.Call(ctx5s(t), "echo", echoReq{Text: "in"}, &got); err != nil || got.Text != "in (wrapped)" {
		t.Fatalf("fallen-through, wrapped route: %+v, %v", got, err)
	}
	before := calls.Load()
	var re *wire.RemoteError
	if err := cli.Call(ctx5s(t), "echo", echoReq{Text: "refuse"}, nil); !errors.As(err, &re) || re.Msg != "refused" || calls.Load() != before {
		t.Fatalf("wrapper's refusal: %v, route ran %d times", err, calls.Load()-before)
	}
}

// A peer that sends requests and never drains its socket used to park the
// serve goroutine in Write with the admission slot held, for good:
// MaxConcurrency such peers shed everyone else indefinitely. The reply's
// write is bounded by the request's budget, the write that times out closes
// the connection, and the slot goes to the next caller.
func TestMuxPeerThatStopsReadingLosesItsSlot(t *testing.T) {
	ctl := overload.New(overload.Config{MaxConcurrency: 1, QueueDepth: 4, QueueWait: time.Minute}, nil)
	x := &wire.Mux{Admit: ctl.Admit}
	big := &wire.ResolveResponse{Data: strings.Repeat("a component far larger than any socket buffer; ", 12<<20/47)}
	closed := make(chan string, 8) // the peers whose connections the server has let go of
	wire.Handle(x, wire.TypeResolve, func(c *wire.ServerConn, m *wire.Message, req *wire.ResolveRequest) {
		if req.Pattern != wire.PatternChaining {
			_ = c.Reply(m, &wire.ResolveResponse{Hops: 1})
			return
		}
		c.OnClose(func() { closed <- c.RemoteAddr() })
		_ = c.Reply(m, big)
	})
	srv, err := wire.Serve("127.0.0.1:0", x)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	mute, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	_ = mute.(*net.TCPConn).SetReadBuffer(4 << 10)
	const budget = 400 * time.Millisecond
	for id := uint64(1); id <= 3; id++ {
		if err := wire.WriteFrame(mute, &wire.Message{Type: wire.TypeResolve, ID: id, BudgetMillis: budget.Milliseconds(),
			Payload: wire.Marshal(wire.ResolveRequest{Path: "/user[@id='u']/address-book", Pattern: wire.PatternChaining})}); err != nil {
			t.Fatal(err)
		}
	}
	for { // the mute peer's first request holds the slot, stuck in its reply
		if executing, _ := ctl.InUse(); executing == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	var resp wire.ResolveResponse
	if err := cli.Call(ctx5s(t), wire.TypeResolve, wire.ResolveRequest{Path: "/user[@id='v']/presence"}, &resp); err != nil || resp.Hops != 1 {
		t.Fatalf("a second client behind a peer that stopped reading: %+v, %v", resp, err)
	}
	if took := time.Since(start); took > budget+time.Second {
		t.Errorf("the slot came free after %s, want about the mute peer's %s budget", took, budget)
	}
	// The mute peer's connection is gone: its framing was unrecoverable.
	select {
	case addr := <-closed:
		if addr != mute.LocalAddr().String() {
			t.Errorf("the server closed %s, not the mute peer %s", addr, mute.LocalAddr())
		}
	case <-time.After(5 * time.Second):
		t.Error("the server kept the mute peer's connection")
	}
}
