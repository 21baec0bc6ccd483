package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"gupster/internal/core"
	"gupster/internal/coverage"
	"gupster/internal/flight"
	"gupster/internal/journal"
	"gupster/internal/overload"
	"gupster/internal/token"
	"gupster/internal/wire"
	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

// layerTiming is one exported function of one layer, timed from outside on
// one goroutine.
type layerTiming struct {
	name     string
	nsOp     float64
	allocsOp float64
}

// layerBudget is how long each layer function is timed for; the fsyncing
// ones simply fit fewer iterations in.
const layerBudget = 50 * time.Millisecond

// sink keeps the compiler from discarding timed calls.
var sink any

// timeFn reports fn's cost as the median ns/op of five equal batches, sized
// so that the whole measurement takes about budget, and its heap
// allocations per op over those batches. The collector is held off while
// the batches run: the rig's heap is hundreds of MiB on the 8 KiB workloads,
// and a mark cycle landing in a batch would price the heap, not the layer.
func timeFn(budget time.Duration, fn func()) (nsOp, allocsOp float64) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fn()
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(start) >= budget/8 || n >= 1<<22 {
			break
		}
		n *= 2
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	per := make([]float64, 5)
	for b := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[b] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	runtime.ReadMemStats(&m1)
	return median(per), float64(m1.Mallocs-m0.Mallocs) / float64(5*n)
}

// sizedBook builds a book of the given size split k ways, each piece on the
// <user> spine a store returns it on, plus the merged whole.
func sizedBook(bytes, k int, seed int64) (pieces []*xmltree.Node, whole *xmltree.Node) {
	pop := generate(rigSpec{users: 1, bookBytes: bytes, split: k}, seed)
	u := pop.users[0]
	for _, p := range u.pieces {
		pieces = append(pieces, xmltree.New("user").SetAttr("id", u.id).Add(p))
	}
	return pieces, xmltree.MergeAll(xmltree.DefaultKeys, pieces...)
}

// timeLayers times every layer function on the idle rig. Paths, shields,
// registry, frames and store documents are the ones this workload's ops
// carry; the size-labelled documents come from the same generator and seed.
func (s *session) timeLayers(ctx context.Context) ([]layerTiming, error) {
	r, pop := s.rig, s.pop
	var out []layerTiming
	add := func(name string, fn func()) {
		ns, allocs := timeFn(layerBudget, fn)
		out = append(out, layerTiming{name, ns, allocs})
	}
	// per halves a timing that covers a do/undo pair of mutations.
	halve := func() {
		lt := &out[len(out)-1]
		lt.nsOp, lt.allocsOp = lt.nsOp/2, lt.allocsOp/2
	}

	// Rotate over the first owners so no timing is one hot cache line.
	const ring = 64
	owners := pop.users[:min(ring, len(pop.users))]
	i := 0
	next := func() *user { i++; return &owners[i%len(owners)] }
	parsed := make(map[string]xpath.Path, len(owners))
	for _, u := range owners {
		parsed[u.id] = xpath.MustParse(u.path)
	}
	w := s.workers[0]
	u0 := &owners[0]
	cover0 := coverPath(u0.id, 0)
	store0 := pop.storeOf(0, 0)

	add("xpath.parse", func() { sink, _ = xpath.Parse(next().path) })
	add("xpath.contains", func() { u := next(); sink = xpath.Contains(parsed[u.id], parsed[u.id]) })
	add("xpath.intersect", func() { sink, _ = xpath.Intersect(parsed[u0.id], cover0) })
	storeDoc := xmltree.New("user").SetAttr("id", u0.id).Add(u0.pieces[0])
	add("xpath.extract", func() { sink = xpath.Extract(storeDoc, cover0) })

	add("coverage.lookup", func() { u := next(); sink = r.mdm.Registry.Lookup(parsed[u.id]) })
	const layerStore = coverage.StoreID("layers.gup.example")
	presence := xpath.MustParse(userPath(u0.id, "/presence"))
	add("coverage.register", func() {
		_ = r.mdm.Registry.Register(presence, layerStore)
		_ = r.mdm.Registry.Unregister(presence, layerStore)
	})
	halve()

	add("policy.decide", func() { u := next(); sink = r.mdm.PDP.Decide(u.id, parsed[u.id], w.rctx) })

	add("token.sign", func() {
		sink = r.signer.Sign(storeID(store0), u0.id, cover0, token.VerbFetch, w.rctx.Requester, 30*time.Second)
	})
	signed := r.signer.Sign(storeID(store0), u0.id, cover0, token.VerbFetch, w.rctx.Requester, 30*time.Second)
	add("token.verify", func() { sink = r.signer.Verify(&signed, storeID(store0), token.VerbFetch) })

	pieces1k, whole1k := sizedBook(1<<10, 2, s.cfg.seed)
	pieces8k, whole8k := sizedBook(8<<10, 4, s.cfg.seed)
	xml1k, xml8k := whole1k.String(), whole8k.String()
	add("xmltree.parse.1k", func() { sink, _ = xmltree.ParseString(xml1k) })
	add("xmltree.parse.8k", func() { sink, _ = xmltree.ParseString(xml8k) })
	add("xmltree.serialize.8k", func() { sink = whole8k.String() })
	add("xmltree.deep_union.1k", func() { sink = xmltree.MergeAll(xmltree.DefaultKeys, pieces1k...) })
	add("xmltree.deep_union.8k", func() { sink = xmltree.MergeAll(xmltree.DefaultKeys, pieces8k...) })

	// Frame codec: payload marshal + envelope + length prefix one way,
	// the reverse the other — everything a frame costs short of the socket.
	small := &wire.ResolveRequest{Path: u0.path, Context: w.rctx, Verb: token.VerbFetch}
	large := &wire.ResolveResponse{Data: xml8k}
	for _, f := range []struct {
		size    string
		payload any
		into    func() any
	}{
		{"small", small, func() any { return new(wire.ResolveRequest) }},
		{"large", large, func() any { return new(wire.ResolveResponse) }},
	} {
		add("wire.write_frame."+f.size, func() {
			_ = wire.WriteFrame(io.Discard, &wire.Message{Type: wire.TypeResolve, ID: 7, Payload: wire.Marshal(f.payload)})
		})
		var buf bytes.Buffer
		if err := wire.WriteFrame(&buf, &wire.Message{Type: wire.TypeResolve, ID: 7, Payload: wire.Marshal(f.payload)}); err != nil {
			return nil, err
		}
		encoded := buf.Bytes()
		add("wire.read_frame."+f.size, func() {
			m, err := wire.ReadFrame(bytes.NewReader(encoded))
			if err == nil {
				err = wire.Unmarshal(m.Payload, f.into())
			}
			sink = err
		})
	}
	echo, err := wire.Serve("127.0.0.1:0", wire.HandlerFunc(func(c *wire.ServerConn, m *wire.Message) {
		var req wire.ResolveRequest
		if err := wire.Unmarshal(m.Payload, &req); err != nil {
			_ = c.ReplyError(m, err)
			return
		}
		_ = c.Reply(m, &req)
	}))
	if err != nil {
		return nil, err
	}
	defer echo.Close()
	echoCli, err := wire.Dial(echo.Addr())
	if err != nil {
		return nil, err
	}
	defer echoCli.Close()
	add("wire.roundtrip", func() {
		var back wire.ResolveRequest
		sink = echoCli.Call(ctx, wire.TypeResolve, small, &back)
	})

	rec := journal.Record{Op: journal.OpRegister, Register: &wire.RegisterRequest{
		Store: string(layerStore), Address: "127.0.0.1:1", Path: presence.String(),
	}}
	batch := []journal.Record{rec, rec, rec, rec, rec, rec, rec, rec}
	for _, jt := range []struct {
		name string
		opts journal.Options
		fn   func(j *journal.Journal)
	}{
		{"journal.append.fsync", journal.Options{CompactEvery: -1}, func(j *journal.Journal) { sink = j.Append(rec) }},
		{"journal.append.nosync", journal.Options{CompactEvery: -1, NoSync: true}, func(j *journal.Journal) { sink = j.Append(rec) }},
		{"journal.append_batch8.fsync", journal.Options{CompactEvery: -1}, func(j *journal.Journal) { _, sink = j.AppendBatch(batch) }},
	} {
		dir, err := newScratchDir(s.cfg.outDir, "layer-journal-")
		if err != nil {
			return nil, err
		}
		j, _, err := journal.Open(dir, jt.opts)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		add(jt.name, func() { jt.fn(j) })
		j.Close()
		os.RemoveAll(dir)
	}

	referral := func(u *user) *wire.ResolveRequest {
		return &wire.ResolveRequest{Path: u.path, Context: w.rctx, Verb: token.VerbFetch}
	}
	add("core.mdm_resolve.referral", func() { sink, _ = r.mdm.Resolve(ctx, referral(next())) })

	// A chain hit needs a filled cache whatever the workload's own MDM has:
	// a second MDM over the same stores and signer, one owner registered,
	// primed once.
	aux := core.New(mdmConfig(r.signer, 64))
	defer aux.Close()
	for j := range u0.pieces {
		st := pop.storeOf(0, j)
		if err := aux.Register(coverage.StoreID(storeID(st)), r.stores[st].Addr(), coverPath(u0.id, j)); err != nil {
			return nil, err
		}
	}
	for _, rule := range shieldRules(u0.id) {
		if err := aux.PAP.PutRule(u0.id, rule); err != nil {
			return nil, err
		}
	}
	chained := referral(u0)
	chained.Pattern = wire.PatternChaining
	if resp, err := aux.Resolve(ctx, chained); err != nil {
		return nil, fmt.Errorf("prime chain cache: %w", err)
	} else if resp.Data == "" {
		return nil, fmt.Errorf("prime chain cache: empty answer")
	}
	add("core.mdm_resolve.chain_hit", func() { sink, _ = aux.Resolve(ctx, chained) })
	if hits := aux.Stats.CacheHits.Load(); hits == 0 {
		return nil, fmt.Errorf("core.mdm_resolve.chain_hit never hit the cache")
	}

	add("core.mdm_register", func() {
		_ = r.mdm.Register(layerStore, "127.0.0.1:1", presence)
		_ = r.mdm.Unregister(layerStore, presence)
	})
	halve()

	eng := r.engines[store0]
	book := xpath.MustParse(u0.path)
	add("store.engine_get", func() { sink, _, _ = eng.Get(u0.id, cover0) })
	add("store.engine_put", func() { sink, _ = eng.Put(u0.id, book, u0.pieces[0]) })

	adm := overload.New(overload.Config{MaxConcurrency: 64}, nil)
	add("overload.acquire_release", func() {
		release, err := adm.Acquire(ctx, overload.ClassHigh)
		if err == nil {
			release()
		}
	})
	fg := flight.NewGroup(nil)
	add("flight.do", func() { sink, _, _ = fg.Do(ctx, "k", func() (any, error) { return nil, nil }) })
	return out, nil
}

// budgetRow says how often one op calls one timed layer function, counting
// all the work done on the op's behalf in client, MDM and stores: the
// closed loop keeps every core busy, so latency follows total work.
type budgetRow struct {
	fn    string
	calls float64
}

// budgetRows is the call-count model, read off the code paths (README,
// "Latency budget") and keyed on the same spec fields that drive the ops:
// the call, the split k, the book size and writeFraction. miss is the share
// of chained resolves the MDM's cache did not answer, as measured in this
// pass.
func budgetRows(spec workloadSpec, miss float64) []budgetRow {
	k := float64(spec.split)
	size := "1k"
	if spec.bookBytes > 1<<10 {
		size = "8k"
	}
	// Serialising is timed at 8 KiB only; it is linear in the document.
	serializeBook := budgetRow{"xmltree.serialize.8k", float64(spec.bookBytes) / (8 << 10)}
	scaled := func(f float64, rows ...budgetRow) []budgetRow {
		out := make([]budgetRow, len(rows))
		for i, row := range rows {
			out[i] = budgetRow{row.fn, f * row.calls}
		}
		return out
	}
	// What the MDM does for any resolve, and the round trip that carries it.
	mdmRead := []budgetRow{
		{"xpath.parse", 1}, {"policy.decide", 1}, {"coverage.lookup", 1},
		{"xpath.intersect", k}, {"token.sign", k},
		{"overload.acquire_release", 1}, {"wire.roundtrip", 1},
	}
	// What k stores do for one book: k fetches whose pieces add up to it.
	storeFetch := []budgetRow{
		{"xpath.parse", k}, {"token.verify", k}, {"store.engine_get", k}, {"wire.roundtrip", k}, serializeBook,
	}
	var rows []budgetRow
	switch spec.op {
	case opReferral:
		// The client follows the referrals itself, parses and merges.
		rows = append(append(rows, mdmRead...), storeFetch...)
		rows = append(rows, budgetRow{"flight.do", 1}, budgetRow{"xmltree.parse." + size, 1}, budgetRow{"xmltree.deep_union." + size, 1})
	case opChaining:
		// The reply carries the book in one large frame; the client parses
		// it. On a miss the MDM first fetches, parses, merges and
		// re-serialises it, the book crossing the wire once more.
		rows = append(rows, mdmRead...)
		rows = append(rows, budgetRow{"flight.do", 1}, budgetRow{"wire.write_frame.large", 1},
			budgetRow{"wire.read_frame.large", 1}, budgetRow{"xmltree.parse." + size, 1})
		rows = append(rows, scaled(miss, storeFetch...)...)
		rows = append(rows, scaled(miss, serializeBook, budgetRow{"xmltree.parse." + size, 1}, budgetRow{"xmltree.deep_union." + size, 1},
			budgetRow{"wire.write_frame.large", 1}, budgetRow{"wire.read_frame.large", 1})...)
	case opChurn:
		rows = scaled(1-writeFraction, mdmRead...)
		rows = append(rows, scaled(writeFraction, budgetRow{"xpath.parse", 1}, budgetRow{"coverage.register", 1},
			budgetRow{"journal.append.fsync", 1}, budgetRow{"wire.roundtrip", 1})...)
	}
	// One row per function: the MDM's and the stores' calls add up.
	var merged []budgetRow
	at := make(map[string]int)
	for _, row := range rows {
		if row.calls == 0 {
			continue
		}
		if i, ok := at[row.fn]; ok {
			merged[i].calls += row.calls
			continue
		}
		at[row.fn] = len(merged)
		merged = append(merged, row)
	}
	return merged
}

// budgetLayers are the packages a budget share is reported for.
var budgetLayers = []string{"xpath", "coverage", "policy", "token", "store", "xmltree", "wire", "journal", "overload", "flight"}

// printBudget prints the latency budget and records budget.* metrics. p50 is
// the untraced median op latency the budget is held against; miss is the
// measured cache-miss share of chained resolves.
func printBudget(cfg runConfig, layers []layerTiming, p50, miss float64, m map[string]float64) {
	ns := make(map[string]float64, len(layers))
	for _, lt := range layers {
		ns[lt.name] = lt.nsOp
	}
	fmt.Fprintf(cfg.log, "  layer timings (one goroutine, idle rig):\n")
	for _, lt := range layers {
		fmt.Fprintf(cfg.log, "    %-30s %12.1f ns/op %8.1f allocs/op\n", lt.name, lt.nsOp, lt.allocsOp)
	}
	perLayer := make(map[string]float64)
	total := 0.0
	fmt.Fprintf(cfg.log, "  latency budget against p50 = %.1f us:\n", p50)
	fmt.Fprintf(cfg.log, "    %-30s %9s %12s %10s %7s\n", "layer function", "calls/op", "ns/op", "us/op", "share")
	for _, row := range budgetRows(cfg.spec, miss) {
		us := row.calls * ns[row.fn] / 1e3
		perLayer[row.fn[:strings.IndexByte(row.fn, '.')]] += us
		total += us
		fmt.Fprintf(cfg.log, "    %-30s %9.2f %12.1f %10.2f %6.1f%%\n", row.fn, row.calls, ns[row.fn], us, 100*us/p50)
	}
	for _, layer := range budgetLayers {
		m["budget."+layer+".us_per_op"] = perLayer[layer]
	}
	m["budget.explained_ratio"] = total / p50
	fmt.Fprintf(cfg.log, "    %-30s %9s %12s %10.2f %6.1f%%  (budget.explained_ratio %.3f; unexplained %.1f us)\n",
		"total", "", "", total, 100*total/p50, total/p50, p50-total)
}
