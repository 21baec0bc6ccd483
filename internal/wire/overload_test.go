package wire

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// FuzzOverloadedReply is the property test that TypeOverloaded replies are
// well-formed frames whatever the hint and reason: they round-trip through
// the framing, keep the correlation ID, carry a decodable payload, and
// always set Error so old clients terminate cleanly.
func FuzzOverloadedReply(f *testing.F) {
	f.Add(uint64(1), int64(250), "admission queue full")
	f.Add(uint64(0), int64(0), "")
	f.Add(uint64(1<<63), int64(-5), "queue wait exceeded")
	f.Add(uint64(42), int64(1<<40), "budget expired on arrival\x00\xff")
	f.Fuzz(func(t *testing.T, id uint64, retryMillis int64, reason string) {
		req := &Message{Type: TypeResolve, ID: id}
		reply := errorReply(t, req, &OverloadedError{RetryAfter: time.Duration(retryMillis) * time.Millisecond, Reason: reason})
		if id == 0 {
			if reply != nil {
				t.Fatalf("one-way frame answered: %+v", reply)
			}
			return
		}
		if reply.Type != TypeOverloaded {
			t.Fatalf("reply type %q, want %q", reply.Type, TypeOverloaded)
		}
		if reply.ID != id {
			t.Fatalf("reply ID %d, want %d (correlation broken)", reply.ID, id)
		}
		if reply.Error == "" {
			t.Fatal("overloaded reply without Error: old clients would hang on it")
		}
		var p OverloadedError
		if err := Unmarshal(reply.Payload, &p); err != nil {
			t.Fatalf("overloaded payload undecodable: %v", err)
		}
		if want := time.Duration(retryMillis) * time.Millisecond; p.RetryAfter != want || p.Reason != reason {
			t.Fatalf("payload %v %q, want %v %q", p.RetryAfter, p.Reason, want, reason)
		}
		// The frame itself must re-frame: a shed reply that cannot be
		// relayed would poison proxies.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, reply); err != nil {
			t.Fatalf("re-frame: %v", err)
		}
		again, err := ReadFrame(&buf)
		if err != nil || again.Type != TypeOverloaded || again.ID != id {
			t.Fatalf("re-framed reply corrupt: %+v, %v", again, err)
		}
	})
}

func TestBudgetRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Message{Type: TypeResolve, ID: 7, BudgetMillis: 1234}); err != nil {
		t.Fatal(err)
	}
	m, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m.BudgetMillis != 1234 {
		t.Fatalf("BudgetMillis = %d, want 1234", m.BudgetMillis)
	}
	// Absent budget marshals away entirely (old-peer compatibility).
	buf.Reset()
	if err := WriteFrame(&buf, &Message{Type: TypeResolve, ID: 8}); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("budget_ms")) {
		t.Fatalf("zero budget serialized: %s", buf.Bytes())
	}
}

func TestBudgetContext(t *testing.T) {
	// No message / no budget: parent unchanged.
	parent := context.Background()
	for _, m := range []*Message{nil, {}, {BudgetMillis: -3}} {
		ctx, cancel := BudgetContext(parent, m)
		if _, ok := ctx.Deadline(); ok {
			t.Fatalf("budget-less message produced a deadline (%+v)", m)
		}
		cancel()
	}
	// Positive budget: a deadline about that far out.
	ctx, cancel := BudgetContext(parent, &Message{BudgetMillis: 5000})
	defer cancel()
	d, ok := ctx.Deadline()
	if !ok {
		t.Fatal("budgeted message produced no deadline")
	}
	if rem := time.Until(d); rem <= 0 || rem > 5001*time.Millisecond {
		t.Fatalf("budgeted deadline %v out, want ~5s", rem)
	}
	// The budget also floors under a tighter parent deadline.
	tight, tcancel := context.WithTimeout(parent, time.Millisecond)
	defer tcancel()
	ctx2, cancel2 := BudgetContext(tight, &Message{BudgetMillis: 60000})
	defer cancel2()
	if d2, _ := ctx2.Deadline(); time.Until(d2) > 2*time.Millisecond {
		t.Fatal("budget context extended past the parent deadline")
	}
}

// TestCallStampsBudget drives a Call with a context deadline through a real
// server and asserts the server-side frame carries the remaining budget —
// and that a deadline-less call carries none.
func TestCallStampsBudget(t *testing.T) {
	got := make(chan int64, 2)
	srv, err := Serve("127.0.0.1:0", HandlerFunc(func(c *ServerConn, m *Message) {
		got <- m.BudgetMillis
		_ = c.Reply(m, Empty{})
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 800*time.Millisecond)
	if err := cli.Call(ctx, TypeStats, nil, nil); err != nil {
		t.Fatalf("budgeted call: %v", err)
	}
	cancel()
	if b := <-got; b <= 0 || b > 800 {
		t.Fatalf("server saw budget %dms, want (0, 800]", b)
	}
	if err := cli.Call(context.Background(), TypeStats, nil, nil); err != nil {
		t.Fatalf("deadline-less call: %v", err)
	}
	if b := <-got; b != 0 {
		t.Fatalf("deadline-less call stamped budget %dms", b)
	}
}

// TestCallFailsFastOnSpentBudget: a context whose deadline already passed
// must not ship a doomed frame.
func TestCallFailsFastOnSpentBudget(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", HandlerFunc(func(c *ServerConn, m *Message) {
		t.Error("doomed frame reached the server")
		_ = c.Reply(m, Empty{})
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err = cli.Call(ctx, TypeStats, nil, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("spent-budget call: got %v, want DeadlineExceeded", err)
	}
	// Give an erroneously shipped frame time to surface via t.Error.
	time.Sleep(50 * time.Millisecond)
}

// TestOverloadedErrorDecoding: a replied *OverloadedError surfaces client-side
// as a typed *OverloadedError carrying the hint, not as a RemoteError.
func TestOverloadedErrorDecoding(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", HandlerFunc(func(c *ServerConn, m *Message) {
		_ = c.ReplyError(m, &OverloadedError{RetryAfter: 750 * time.Millisecond, Reason: "admission queue full"})
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	err = cli.Call(context.Background(), TypeResolve, &ResolveRequest{Path: "/user/x"}, nil)
	var ov *OverloadedError
	if !errors.As(err, &ov) {
		t.Fatalf("got %v (%T), want *OverloadedError", err, err)
	}
	if ov.RetryAfter != 750*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want 750ms", ov.RetryAfter)
	}
	if ov.Reason != "admission queue full" {
		t.Fatalf("Reason = %q", ov.Reason)
	}
	var re *RemoteError
	if errors.As(err, &re) {
		t.Fatal("overloaded reply also decoded as RemoteError")
	}
	if !strings.Contains(ov.Error(), "overloaded") {
		t.Fatalf("error text %q does not say overloaded", ov.Error())
	}
}
