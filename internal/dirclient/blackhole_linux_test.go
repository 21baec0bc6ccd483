package dirclient

import (
	"context"
	"errors"
	"testing"
	"time"

	"gupster/internal/faultinject"
	"gupster/internal/wire"
)

func blackhole(t *testing.T) string {
	t.Helper()
	addr, release, err := faultinject.Blackhole()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(release)
	return addr
}

// The handle dials under the call's context: a blackholed first candidate
// costs the caller what its context allows, not wire.Dial's 5 s.
func TestDialHonoursCallContext(t *testing.T) {
	hole := blackhole(t)
	live := startNode(t)
	live.set(nil, ok)
	d := New(hole, live.addr())
	defer d.Close()

	// A context that has already ended: the call is over at once, with the
	// context's error — the caller ran out of time, the directory is not
	// "unreachable".
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	t0 := time.Now()
	err := d.Call(dead, "", wire.TypeStats, wire.Empty{}, nil)
	if !errors.Is(err, context.Canceled) || errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want the context's", err)
	}
	// A one-way send has no caller waiting on a reply to hand the error
	// to, so it rotates: every candidate is tried, none is waited on.
	if err := d.Send(dead, "", wire.TypeChanged, wire.Empty{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("send err = %v, want it to wrap the context's", err)
	}
	if took := time.Since(t0); took > time.Second {
		t.Fatalf("two calls under a dead context took %s", took)
	}

	// A short budget is all a blackholed candidate can cost.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	t0 = time.Now()
	err = d.Call(ctx, "", wire.TypeStats, wire.Empty{}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if took := time.Since(t0); took > 2*time.Second {
		t.Fatalf("a 200ms call spent %s on a blackholed address", took)
	}
	if n := live.calls.Load(); n != 0 {
		t.Fatalf("live node saw %d calls under dead contexts", n)
	}
}
