package core_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"gupster/internal/core"
	"gupster/internal/overload"
	"gupster/internal/policy"
	"gupster/internal/schema"
	"gupster/internal/store"
	"gupster/internal/token"
	"gupster/internal/wire"
)

// newOverloadRig is newRig with admission control configured on the MDM.
func newOverloadRig(t *testing.T, ov overload.Config, cacheEntries int) *rig {
	t.Helper()
	signer := token.NewSigner(key)
	m := core.New(core.Config{
		Schema:       schema.GUP(),
		Signer:       signer,
		GrantTTL:     time.Minute,
		CacheEntries: cacheEntries,
		Overload:     ov,
	})
	srv := core.NewServer(m)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("MDM start: %v", err)
	}
	r := &rig{t: t, mdm: m, server: srv, stores: map[string]*store.Server{}, signer: signer}
	t.Cleanup(func() {
		m.Close()
		srv.Close()
		for _, s := range r.stores {
			s.Close()
		}
	})
	return r
}

// A shed BatchResolve must shed as a unit: one overloaded frame, never a
// half-answered batch. Admission runs before dispatch, so the frame either
// enters the handler whole or not at all.
func TestBatchResolveShedsAtomically(t *testing.T) {
	r := newOverloadRig(t, overload.Config{
		MaxConcurrency: 1,
		QueueDepth:     1,
		QueueWait:      50 * time.Millisecond,
	}, 0)
	r.addStore("gup.spcs.com")
	r.register("gup.spcs.com", "/user[@id='arnaud']/presence")
	r.register("gup.spcs.com", "/user[@id='arnaud']/address-book")
	r.seed("gup.spcs.com", "arnaud", "/user[@id='arnaud']/presence", `<presence status="available"/>`)
	r.seed("gup.spcs.com", "arnaud", "/user[@id='arnaud']/address-book", `<address-book/>`)

	batch := &wire.BatchResolveRequest{Requests: []wire.ResolveRequest{
		{Path: "/user[@id='arnaud']/presence", Context: policy.Context{Requester: "arnaud"}, Verb: token.VerbFetch},
		{Path: "/user[@id='arnaud']/address-book", Context: policy.Context{Requester: "arnaud"}, Verb: token.VerbFetch},
	}}

	wc, err := wire.Dial(r.server.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer wc.Close()

	// Hold the server's only slot so the batch queues and then times out.
	release, err := r.mdm.Admission().Acquire(context.Background(), overload.ClassHigh)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	var resp wire.BatchResolveResponse
	err = wc.Call(context.Background(), wire.TypeBatchResolve, batch, &resp)
	var ov *wire.OverloadedError
	if !errors.As(err, &ov) {
		release()
		t.Fatalf("saturated batch: got %v, want *wire.OverloadedError", err)
	}
	if len(resp.Results) != 0 {
		release()
		t.Fatalf("shed batch carried %d results, want 0 (atomic shed)", len(resp.Results))
	}
	if ov.RetryAfter <= 0 {
		release()
		t.Fatalf("shed reply carried no retry-after hint: %+v", ov)
	}
	release()

	// With the slot free the same batch answers every entry.
	resp = wire.BatchResolveResponse{}
	if err := wc.Call(context.Background(), wire.TypeBatchResolve, batch, &resp); err != nil {
		t.Fatalf("batch after release: %v", err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(resp.Results))
	}
	for i, e := range resp.Results {
		if e.Error != "" || e.Response == nil {
			t.Fatalf("entry %d failed after release: %+v", i, e)
		}
	}
}

// Under brownout a chaining resolve whose cache entry was invalidated is
// answered from that stale entry — stamped Stale and Degraded — and
// fresh data returns once pressure recedes.
func TestBrownoutServesStaleChainedResolve(t *testing.T) {
	r := newOverloadRig(t, overload.Config{
		MaxConcurrency:    4,
		QueueDepth:        8,
		QueueWait:         time.Second,
		BrownoutThreshold: 0.25,
		BrownoutWindow:    5 * time.Millisecond,
	}, 16)
	r.addStore("gup.spcs.com")
	r.register("gup.spcs.com", "/user[@id='arnaud']/address-book")
	r.seed("gup.spcs.com", "arnaud", "/user[@id='arnaud']/address-book",
		`<address-book><item name="old"><phone>1</phone></item></address-book>`)

	cli := r.client("arnaud", "self")
	chainReq := &wire.ResolveRequest{
		Path:    "/user[@id='arnaud']/address-book",
		Context: policy.Context{Requester: "arnaud"},
		Verb:    token.VerbFetch,
		Pattern: wire.PatternChaining,
	}

	// Populate the cache, then invalidate it by changing the component:
	// the change notice marks the old value stale in place.
	if _, err := cli.Resolve(context.Background(), chainReq); err != nil {
		t.Fatalf("warm resolve: %v", err)
	}
	r.seed("gup.spcs.com", "arnaud", "/user[@id='arnaud']/address-book",
		`<address-book><item name="new"><phone>2</phone></item></address-book>`)

	// Hold 3 of 4 slots: pressure 3/12 = 0.25 meets the threshold; the
	// lazy detector flips after the hysteresis window.
	adm := r.mdm.Admission()
	var releases []func()
	for i := 0; i < 3; i++ {
		rel, err := adm.Acquire(context.Background(), overload.ClassHigh)
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		releases = append(releases, rel)
	}
	deadline := time.Now().Add(2 * time.Second)
	for !adm.Brownout() {
		if time.Now().After(deadline) {
			t.Fatal("brownout never engaged under sustained pressure")
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, err := cli.Resolve(context.Background(), chainReq)
	if err != nil {
		t.Fatalf("brownout resolve: %v", err)
	}
	if !resp.Stale {
		t.Fatalf("brownout resolve not marked stale: %+v", resp)
	}
	if len(resp.Degraded) == 0 {
		t.Fatalf("brownout resolve lists no degraded paths: %+v", resp)
	}
	if !strings.Contains(resp.Data, `name="old"`) {
		t.Fatalf("brownout answer is not the parked stale value: %q", resp.Data)
	}

	for _, rel := range releases {
		rel()
	}
	deadline = time.Now().Add(2 * time.Second)
	for adm.Brownout() {
		if time.Now().After(deadline) {
			t.Fatal("brownout never recovered after pressure receded")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err = cli.Resolve(context.Background(), chainReq)
	if err != nil {
		t.Fatalf("recovered resolve: %v", err)
	}
	if resp.Stale {
		t.Fatalf("recovered resolve still stale: %+v", resp)
	}
	if !strings.Contains(resp.Data, `name="new"`) {
		t.Fatalf("recovered answer is not fresh: %q", resp.Data)
	}
}

// Interop: a peer that does not stamp budgets (an old client — any context
// without a deadline) is served untimed, even with admission enabled and
// service-time samples on record.
func TestOldClientWithoutBudgetInterop(t *testing.T) {
	r := newOverloadRig(t, overload.Config{MaxConcurrency: 4}, 0)
	r.addStore("gup.spcs.com")
	r.register("gup.spcs.com", "/user[@id='arnaud']/presence")
	r.seed("gup.spcs.com", "arnaud", "/user[@id='arnaud']/presence", `<presence status="available"/>`)

	cli := r.client("arnaud", "self")
	// Build p50 samples first so ExpiredOnArrival has teeth — it must
	// still never fire on a frame that carries no budget.
	for i := 0; i < 3; i++ {
		if _, err := cli.Get(context.Background(), "/user[@id='arnaud']/presence"); err != nil {
			t.Fatalf("warm get %d: %v", i, err)
		}
	}
	doc, err := cli.Get(context.Background(), "/user[@id='arnaud']/presence")
	if err != nil {
		t.Fatalf("budget-less get: %v", err)
	}
	if s, _ := doc.Child("presence").Attr("status"); s != "available" {
		t.Errorf("got %s", doc)
	}
	if n := r.mdm.Admission().Stats.BudgetExpired.Load(); n != 0 {
		t.Fatalf("BudgetExpired = %d for budget-less traffic, want 0", n)
	}
}

// TestChaosOverloadResolveStorm hammers a tiny admission window with far
// more concurrent chaining resolves than it can hold. Every outcome must
// be a success, an explicit shed, or the caller's own deadline — and the
// server must come out of the storm fully drained and serving.
func TestChaosOverloadResolveStorm(t *testing.T) {
	r := newOverloadRig(t, overload.Config{
		MaxConcurrency:    2,
		QueueDepth:        2,
		QueueWait:         30 * time.Millisecond,
		BrownoutThreshold: 0.75,
		BrownoutWindow:    10 * time.Millisecond,
	}, 16)
	r.addStore("gup.spcs.com")
	for i := 0; i < 8; i++ {
		user := fmt.Sprintf("u%d", i)
		path := fmt.Sprintf("/user[@id='%s']/address-book", user)
		r.register("gup.spcs.com", path)
		r.seed("gup.spcs.com", user, path, `<address-book><item name="x"><phone>1</phone></item></address-book>`)
	}

	const workers = 16
	const iters = 25
	var wg sync.WaitGroup
	var mu sync.Mutex
	var succeeded, shed, expired int
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wc, err := wire.Dial(r.server.Addr())
			if err != nil {
				t.Errorf("worker %d dial: %v", w, err)
				return
			}
			defer wc.Close()
			for i := 0; i < iters; i++ {
				user := fmt.Sprintf("u%d", (w+i)%8)
				ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
				var resp wire.ResolveResponse
				err := wc.Call(ctx, wire.TypeResolve, &wire.ResolveRequest{
					Path:    fmt.Sprintf("/user[@id='%s']/address-book", user),
					Context: policy.Context{Requester: user},
					Verb:    token.VerbFetch,
					Pattern: wire.PatternChaining,
				}, &resp)
				cancel()
				var ov *wire.OverloadedError
				mu.Lock()
				switch {
				case err == nil:
					succeeded++
				case errors.As(err, &ov):
					shed++
				case errors.Is(err, context.DeadlineExceeded):
					expired++
				default:
					t.Errorf("worker %d iter %d: unexpected error %v", w, i, err)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	// The storm over, the controller must drain to zero — no leaked slots,
	// no stranded waiters.
	adm := r.mdm.Admission()
	deadline := time.Now().Add(2 * time.Second)
	for {
		ex, q := adm.InUse()
		if ex == 0 && q == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("controller never drained: executing=%d queued=%d", ex, q)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if succeeded == 0 {
		t.Fatal("storm produced zero successes — the server served nothing")
	}
	t.Logf("storm: %d ok, %d shed, %d expired", succeeded, shed, expired)

	// And it still serves.
	cli := r.client("u0", "self")
	if _, err := cli.Get(context.Background(), "/user[@id='u0']/address-book"); err != nil {
		t.Fatalf("resolve after storm: %v", err)
	}
}
