package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"gupster/internal/core"
	"gupster/internal/policy"
	"gupster/internal/token"
	"gupster/internal/wire"
	"gupster/internal/workload"
	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

// opKind is the client call a workload makes.
type opKind int

const (
	opReferral opKind = iota // Client.Get: resolve, follow signed referrals, deep-union
	opChaining               // Client.GetVia(PatternChaining): one round trip, data from the MDM
	opChurn                  // Client.Resolve, with writeFraction register/unregister over wire.Client.Call
)

// writeFraction is the share of directory-churn's ops that are coverage
// writes. At 25 % the read quantile 0.67 is the overall median and the write
// quantile 0.80 the overall p95, so p50_us sits in the read mode and
// client.p95_us in the write mode.
const writeFraction = 0.25

// workloadSpec is one row of the README's workload table.
type workloadSpec struct {
	name      string
	why       string
	op        opKind
	bookBytes int
	split     int
	zipf      bool // owners Zipf s=1.1; otherwise uniform
	// cache maps the population size to MDM CacheEntries.
	cache   func(users int) int
	durable bool
}

const zipfS = 1.1

var workloads = []workloadSpec{
	{
		name: "referral-small", op: opReferral, bookBytes: 1 << 10, split: 2, zipf: true,
		cache: func(int) int { return 0 },
		why:   "paper's default referral pattern at the smallest message: 6 frames per op, cache and journal idle",
	},
	{
		name: "chaining-hot", op: opChaining, bookBytes: 8 << 10, split: 4, zipf: true,
		cache: func(u int) int { return max(4096, u) },
		why:   "working set fits the MDM cache: every op is a componentCache hit returning 8 KiB, stores idle",
	},
	{
		name: "chaining-cold", op: opChaining, bookBytes: 8 << 10, split: 4, zipf: false,
		cache: func(u int) int { return max(1, u/32) },
		why:   "working set 32x the MDM cache: every op fans out to 4 stores, parses, merges, re-serialises 8 KiB",
	},
	{
		name: "directory-churn", op: opChurn, bookBytes: 1 << 10, split: 2, zipf: true,
		cache: func(int) int { return 0 }, durable: true,
		why: "roaming writes beside reads on the durable directory: fsynced journal appends against resolves",
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func (w workloadSpec) rigSpec(users int) rigSpec {
	return rigSpec{users: users, bookBytes: w.bookBytes, split: w.split, cache: w.cache(users), durable: w.durable}
}

// Op classes; only directory-churn has writes.
const (
	classRead  = 0
	classWrite = 1
)

// worker is one closed-loop client: one goroutine, one core.Client (one MDM
// connection), the next op only after the previous reply.
type worker struct {
	idx  int
	cli  *core.Client
	roam *wire.Client // directory-churn only: this client's roaming store
	rctx policy.Context
	pick *workload.Population // owner choice
	rng  *rand.Rand           // read/write mix and write targets

	// roamed is the worker's part of the directory model: the owners whose
	// presence its roaming store currently covers.
	roamed map[int]bool

	// Per-wave record, reset by the runner.
	lat       []int64 // ns per op, in completion order
	class     []uint8 // parallel to lat
	attempted int
	failed    int
	firstErr  error

	spans *spanLog // nil on untraced waves
}

func newWorker(idx int, r *rig, seed int64, users int) *worker {
	w := &worker{
		idx:    idx,
		cli:    r.clients[idx],
		pick:   workload.NewPopulation(users, zipfS, seed*7919+int64(idx)+1),
		rng:    workload.Rand(seed*104729 + int64(idx) + 1),
		roamed: make(map[int]bool),
	}
	w.rctx = policy.Context{Requester: w.cli.Identity, Role: w.cli.Role, Purpose: policy.PurposeQuery}
	if len(r.roamers) > 0 {
		w.roam = r.roamers[idx]
	}
	return w
}

func roamStoreID(idx int) string { return fmt.Sprintf("roam%d.gup.example", idx) }

// nextOwner draws the owner of the next op.
func (w *worker) nextOwner(spec workloadSpec) int {
	var id string
	if spec.zipf {
		id = w.pick.Next()
	} else {
		id = w.pick.Uniform()
	}
	// workload.UserID(i) is "u%05d"; the index is cheaper than a map.
	n := 0
	for _, c := range id[1:] {
		n = n*10 + int(c-'0')
	}
	return n
}

// fail records a failed or wrong op.
func (w *worker) fail(err error) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// runOp performs and checks one op. Latency is timed around the client
// call(s) only; the oracle runs after the clock stops.
func (w *worker) runOp(ctx context.Context, spec workloadSpec, r *rig, pop *population) {
	w.attempted++
	switch spec.op {
	case opReferral, opChaining:
		u := &pop.users[w.nextOwner(spec)]
		var doc *xmltree.Node
		var err error
		op := w.spans.begin("op", 0, 0)
		var req *wire.ResolveRequest
		var resp *wire.ResolveResponse
		start := time.Now()
		if w.spans == nil {
			if spec.op == opReferral {
				doc, err = w.cli.Get(ctx, u.path)
			} else {
				doc, err = w.cli.GetVia(ctx, u.path, wire.PatternChaining)
			}
		} else {
			// Traced: the same work as Get/GetVia, split at the exported
			// seam so each half gets a span.
			req = &wire.ResolveRequest{Path: u.path, Context: w.rctx, Verb: token.VerbFetch}
			if spec.op == opChaining {
				req.Pattern = wire.PatternChaining
			}
			sp := w.spans.begin("client.resolve", op, op)
			resp, err = w.cli.Resolve(ctx, req)
			w.spans.end(sp)
			if err == nil {
				sp = w.spans.begin("client.follow", op, op)
				doc, err = w.cli.FollowReferrals(ctx, resp)
				w.spans.end(sp)
			}
		}
		d := time.Since(start)
		w.spans.end(op)
		w.lat, w.class = append(w.lat, int64(d)), append(w.class, classRead)
		switch {
		case err != nil:
			w.fail(fmt.Errorf("%s: %w", u.id, err))
		case doc == nil || digest(doc) != u.digest:
			w.fail(fmt.Errorf("%s: answer does not match the generated component", u.id))
		}
		if w.spans != nil && err == nil {
			w.shadow(ctx, spec, r, req, resp, op)
		}

	case opChurn:
		if w.rng.Float64() < writeFraction {
			w.churnWrite(ctx, pop)
			return
		}
		u := &pop.users[w.nextOwner(spec)]
		req := &wire.ResolveRequest{Path: u.path, Context: w.rctx, Verb: token.VerbFetch}
		op := w.spans.begin("op", 0, 0)
		sp := w.spans.begin("client.resolve", op, op)
		start := time.Now()
		resp, err := w.cli.Resolve(ctx, req)
		d := time.Since(start)
		w.spans.end(sp)
		w.spans.end(op)
		w.lat, w.class = append(w.lat, int64(d)), append(w.class, classRead)
		if err == nil {
			err = verifyReferrals(r.signer, resp)
		}
		if err != nil {
			w.fail(fmt.Errorf("%s: %w", u.id, err))
		} else if w.spans != nil {
			w.shadow(ctx, spec, r, req, resp, op)
		}
	}
}

// churnWrite toggles this worker's roaming store's coverage of a uniformly
// drawn owner's presence, and applies every acked write to the model.
func (w *worker) churnWrite(ctx context.Context, pop *population) {
	i := w.rng.Intn(len(pop.users))
	path := userPath(pop.users[i].id, "/presence")
	op := w.spans.begin("op", 0, 0)
	sp := w.spans.begin("client.register", op, op)
	var err error
	start := time.Now()
	if w.roamed[i] {
		err = w.roam.Call(ctx, wire.TypeUnregister, &wire.UnregisterRequest{Store: roamStoreID(w.idx), Path: path}, nil)
	} else {
		err = w.roam.Call(ctx, wire.TypeRegister, &wire.RegisterRequest{Store: roamStoreID(w.idx), Address: "127.0.0.1:1", Path: path}, nil)
	}
	d := time.Since(start)
	w.spans.end(sp)
	w.spans.end(op)
	w.lat, w.class = append(w.lat, int64(d)), append(w.class, classWrite)
	if err != nil {
		w.fail(fmt.Errorf("roam %s: %w", path, err))
	} else if w.roamed[i] {
		delete(w.roamed, i)
	} else {
		w.roamed[i] = true
	}
}

// verifyReferrals is the oracle for a referral-pattern resolve: at least one
// alternative, and all its signed queries verify with the rig's signer at the
// store they name.
func verifyReferrals(signer *token.Signer, resp *wire.ResolveResponse) error {
	if len(resp.Alternatives) == 0 {
		return errors.New("resolve returned no alternative")
	}
	var lastErr error
	for _, alt := range resp.Alternatives {
		lastErr = nil
		if len(alt.Referrals) == 0 {
			lastErr = errors.New("alternative without referrals")
		}
		for i := range alt.Referrals {
			q := &alt.Referrals[i].Query
			if err := signer.Verify(q, q.Store, token.VerbFetch); err != nil {
				lastErr = err
				break
			}
		}
		if lastErr == nil {
			return nil
		}
	}
	return lastErr
}

// model is the directory the acked writes should have produced.
func model(pop *population, workers []*worker) map[string]bool {
	want := pop.baseCoverage()
	for _, w := range workers {
		for i := range w.roamed {
			want[roamStoreID(w.idx)+" "+xpath.MustParse(userPath(pop.users[i].id, "/presence")).String()] = true
		}
	}
	return want
}
