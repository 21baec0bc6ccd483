package wire

import (
	"context"
	"errors"
	"testing"
	"time"

	"gupster/internal/faultinject"
)

// No lock is held across a dial: while a Get for a blackholed address is
// pending, a Get for a healthy one completes; and the blackholed Get costs
// its caller what the context allows, not the 5 s dial timeout.
func TestPoolBlackholedDialDelaysNobodyElse(t *testing.T) {
	hole, release, err := faultinject.Blackhole()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	srv, _ := serveCounting(t, "127.0.0.1:0", echo)
	var p Pool
	defer p.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	holeErr := make(chan error, 1)
	go func() {
		_, err := p.Get(ctx, hole)
		holeErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // the SYN is out and unanswered

	if _, err := p.Get(context.Background(), srv.Addr()); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took > 250*time.Millisecond {
		t.Fatalf("Get for a healthy address took %s beside a blackholed dial", took)
	}
	select {
	case err := <-holeErr:
		t.Fatalf("blackholed Get returned before its context ended: %v", err)
	default:
	}
	if err := <-holeErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blackholed Get: %v, want deadline exceeded", err)
	}
	if took := time.Since(t0); took > 2*time.Second {
		t.Fatalf("a 500ms Get spent %s on a blackholed address", took)
	}
}
