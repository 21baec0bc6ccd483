package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"gupster/internal/coverage"
	"gupster/internal/dirclient"
	"gupster/internal/flight"
	"gupster/internal/metrics"
	"gupster/internal/policy"
	"gupster/internal/resilience"
	"gupster/internal/store"
	"gupster/internal/syncml"
	"gupster/internal/token"
	"gupster/internal/trace"
	"gupster/internal/wire"
	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

// Client is a GUPster client application's view of the converged network:
// it resolves requests at the MDM and follows referrals to data stores,
// handling the choice ("||") and merge semantics of §4.3 transparently.
// Safe for concurrent use.
type Client struct {
	// dir is the client's one handle on the directory, whatever stands
	// behind it: it follows leader and shard redirects, remembers where
	// each was last answered, and leaves a dead address.
	dir *dirclient.Directory
	// Identity stamps the request context.
	Identity string
	// Role is the asserted relationship to profile owners.
	Role string

	// pool holds the connections to data stores that referrals are
	// followed on.
	pool wire.Pool

	// Subscription state. Push subscriptions are server-side, in-memory,
	// per-node objects: they die with the serving node (leader failover)
	// and are cancelled with a tombstone when the node discards its
	// directory (snapshot install) or hands the owner to another shard.
	// The client therefore keeps its own durable record of every
	// subscription — path and handler, keyed by a stable client-side
	// handle that callers see in every notification — and each record
	// rides a socket of its own, re-homed through the directory handle
	// whenever that socket ends.
	subMu     sync.Mutex
	subRecs   map[uint64]*subRecord // stable handle → record
	subNextID uint64
	subClosed bool

	// DisableLatencyRouting turns off closest-replica ordering of
	// alternatives, leaving the MDM's (deterministic) order — the ablation
	// measured by benchmark E14.
	DisableLatencyRouting bool

	// latMu guards lat, the per-store-address EWMA fetch latency used to
	// prefer the closest replica among referral alternatives (§5.3:
	// "requests … will be routed to the closest store available").
	latMu sync.Mutex
	lat   map[string]time.Duration
	// observe is observeLatency, bound once rather than on every request.
	observe func(addr string, d time.Duration)

	// Resilience guards store fetches and updates: per-attempt timeouts,
	// capped exponential backoff with jitter, and a per-store circuit
	// breaker. DialMDM installs defaults; replace it before the first
	// request to tune budgets.
	Resilience *resilience.Group

	// DisableCoalescing turns off client-side coalescing of identical
	// concurrent Gets (the benchmark ablation).
	DisableCoalescing bool

	// flights coalesces identical concurrent referral-pattern Gets: many
	// goroutines asking for the same path at the same moment cost one
	// resolve + fetch. pipe counts flights/hits/fan-outs client-side.
	flights *flight.Group
	pipe    *metrics.PipelineStats

	// Tracer records request traces. DialMDM installs a default collector
	// (tracing is cheap enough to stay on); set nil to disable.
	Tracer *trace.Collector

	// traces holds the lazily dialed out-of-band connection for trace
	// reports: telemetry frames must never queue ahead of request frames
	// on the request connection (on a slow link one report delays the next
	// resolve by a full store-and-forward hop). traceQ feeds one reporter
	// goroutine; when it backs up reports are dropped — tracing is lossy
	// under pressure by design, never a brake on requests.
	traces    wire.Pool
	traceQ    chan []trace.Span
	traceQuit chan struct{}
	traceOnce sync.Once // starts the reporter
	traceStop sync.Once // closes traceQuit
}

// DialMDM connects a client identity to the MDM.
func DialMDM(addr, identity, role string) (*Client, error) {
	dir, err := dirclient.Dial(addr)
	if err != nil {
		return nil, err
	}
	pipe := &metrics.PipelineStats{}
	c := &Client{
		dir:        dir,
		Identity:   identity,
		Role:       role,
		subRecs:    make(map[uint64]*subRecord),
		lat:        make(map[string]time.Duration),
		Resilience: resilience.NewGroup(resilience.Policy{}, resilience.BreakerConfig{}, nil),
		flights:    flight.NewGroup(pipe),
		pipe:       pipe,
		Tracer:     trace.NewCollector("client", 0, 0),
		traceQ:     make(chan []trace.Span, 64),
		traceQuit:  make(chan struct{}),
	}
	c.observe = c.observeLatency
	return c, nil
}

// startRoot begins a trace for a client operation: a fresh trace unless
// ctx already carries one (nested client calls join the outer trace). The
// returned finish closure completes the span and, when this call minted
// the trace, reports the finished span set to the MDM so the whole
// constellation's trace directory holds the tree.
func (c *Client) startRoot(ctx context.Context, name string) (context.Context, func(err error)) {
	tctx, sp, rr := trace.StartRoot(ctx, c.Tracer, name)
	return tctx, func(err error) {
		sp.Finish(err)
		if rr != nil {
			c.queueReport(rr.Drain())
		}
	}
}

// queueReport hands a finished trace to the background reporter,
// non-blocking: marshalling and writing the report on the request path
// would tax every resolve (E17 measures this).
func (c *Client) queueReport(spans []trace.Span) {
	if len(spans) == 0 {
		return
	}
	c.traceOnce.Do(func() {
		go func() {
			for {
				select {
				case spans := <-c.traceQ:
					c.reportTrace(spans)
				case <-c.traceQuit:
					return
				}
			}
		}()
	})
	select {
	case c.traceQ <- spans:
	case <-c.traceQuit:
	default: // reporter backed up; drop the trace
	}
}

// reportTrace delivers a finished trace to the MDM, fire-and-forget: a
// one-way frame, no response, errors ignored (tracing must never fail a
// request). Reports go over a dedicated connection, dialed on first use,
// so telemetry never queues ahead of request frames.
func (c *Client) reportTrace(spans []trace.Span) {
	if len(spans) == 0 {
		return
	}
	// The bound keeps telemetry from wedging the reporter goroutine behind
	// a dead connection.
	rctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if conn, err := c.traces.Get(rctx, c.dir.AddrFor("")); err == nil {
		// A failed send kills the connection; the next report redials.
		_ = conn.Send(rctx, wire.TypeTraceReport, wire.TraceReportRequest{Spans: spans})
	}
}

// NewTrace explicitly begins a traced operation for callers (like gupctl)
// that want the trace ID. finish completes the root span and reports the
// trace to the MDM.
func (c *Client) NewTrace(ctx context.Context, name string) (tctx context.Context, traceID string, finish func(err error)) {
	tctx, sp, rr := trace.StartRoot(ctx, c.Tracer, name)
	return tctx, sp.TraceID(), func(err error) {
		sp.Finish(err)
		if rr != nil {
			c.reportTrace(rr.Drain())
		}
	}
}

// TraceSpans fetches one trace's spans from the MDM's trace directory.
func (c *Client) TraceSpans(ctx context.Context, traceID string) ([]trace.Span, error) {
	var resp wire.TraceResponse
	if err := c.dir.Call(ctx, "", wire.TypeTrace, &wire.TraceRequest{TraceID: traceID}, &resp); err != nil {
		return nil, err
	}
	return resp.Spans, nil
}

// SlowTraces fetches recent slow-query traces from the MDM.
func (c *Client) SlowTraces(ctx context.Context, max int) ([]trace.SlowTrace, error) {
	var resp wire.SlowResponse
	if err := c.dir.Call(ctx, "", wire.TypeSlow, &wire.SlowRequest{Max: max}, &resp); err != nil {
		return nil, err
	}
	return resp.Traces, nil
}

// Pipeline exposes the client's resolve-pipeline counters.
func (c *Client) Pipeline() *metrics.PipelineStats { return c.pipe }

// observeLatency folds a fetch duration into the address's EWMA.
func (c *Client) observeLatency(addr string, d time.Duration) {
	c.latMu.Lock()
	defer c.latMu.Unlock()
	if prev, ok := c.lat[addr]; ok {
		c.lat[addr] = (3*prev + d) / 4
	} else {
		c.lat[addr] = d
	}
}

// latencyScore estimates an alternative's cost: the worst known EWMA among
// its referrals. Unknown addresses score zero, so fresh replicas get tried
// (and measured) ahead of known-slow ones.
func (c *Client) latencyScore(alt wire.Alternative) time.Duration {
	c.latMu.Lock()
	defer c.latMu.Unlock()
	var worst time.Duration
	for _, ref := range alt.Referrals {
		if d := c.lat[ref.Address]; d > worst {
			worst = d
		}
	}
	return worst
}

// Close tears down the MDM connection and pooled store connections.
func (c *Client) Close() error {
	c.pool.Close()
	c.subMu.Lock()
	c.subClosed = true
	for _, rec := range c.subRecs {
		if rec.conn != nil {
			rec.conn.Close()
		}
	}
	c.subMu.Unlock()
	c.traces.Close()
	c.traceStop.Do(func() { close(c.traceQuit) })
	c.dir.Close()
	return nil
}

func (c *Client) contextFor(purpose policy.Purpose) policy.Context {
	return policy.Context{Requester: c.Identity, Role: c.Role, Purpose: purpose}
}

// ownerOf names the profile owner a request path is scoped to, so the
// call goes straight to the owner's home shard. Parsing costs allocations
// the unsharded path must not pay, hence the Sharded guard.
func (c *Client) ownerOf(path string) string {
	if !c.dir.Sharded() {
		return ""
	}
	owner, _ := coverage.UserOfPath(path)
	return owner
}

// Resolve asks the MDM for referrals (or data, for chaining/recruiting).
func (c *Client) Resolve(ctx context.Context, req *wire.ResolveRequest) (*wire.ResolveResponse, error) {
	var resp wire.ResolveResponse
	if err := c.dir.Call(ctx, c.ownerOf(req.Path), wire.TypeResolve, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// plans is the executor referrals are followed with, built per call
// because Resilience may be replaced until the first request.
func (c *Client) plans() store.Executor {
	return store.Executor{
		Pool:       &c.pool,
		Resilience: c.Resilience,
		Pipe:       c.pipe,
		Observe:    c.observe,
	}
}

// Get resolves and fetches a profile component with the referral pattern:
// alternatives are tried in order (the choice operator), and within an
// alternative every referral is fetched and the pieces deep-unioned.
func (c *Client) Get(ctx context.Context, path string) (*xmltree.Node, error) {
	return c.GetAs(ctx, path, c.contextFor(policy.PurposeQuery))
}

// GetAs is Get with an explicit request context. Identical concurrent
// calls (same path and context) coalesce into one resolve + fetch;
// followers receive an independent clone of the shared tree, so callers
// may mutate their result freely.
func (c *Client) GetAs(ctx context.Context, path string, reqCtx policy.Context) (*xmltree.Node, error) {
	ctx, finish := c.startRoot(ctx, "client.get")
	doc, err := c.getAs(ctx, path, reqCtx)
	finish(err)
	return doc, err
}

func (c *Client) getAs(ctx context.Context, path string, reqCtx policy.Context) (*xmltree.Node, error) {
	do := func() (*xmltree.Node, error) {
		resp, err := c.Resolve(ctx, &wire.ResolveRequest{
			Path:    path,
			Context: reqCtx,
			Verb:    token.VerbFetch,
		})
		if err != nil {
			return nil, err
		}
		return c.FollowReferrals(ctx, resp)
	}
	if c.DisableCoalescing {
		return do()
	}
	key := path + "\x00" + reqCtx.Requester + "\x00" + reqCtx.Role + "\x00" + string(reqCtx.Purpose)
	v, shared, err := c.flights.Do(ctx, key, func() (any, error) { return do() })
	if err != nil {
		return nil, err
	}
	doc, _ := v.(*xmltree.Node)
	if shared && doc != nil {
		doc = doc.Clone()
	}
	return doc, nil
}

// BatchResolve sends several resolves in one frame per home: a shard
// answers a batch only when it is home to every owner in it, so the entries
// are grouped by where the handle routes their owner (an unsharded
// directory is one home). The homes answer concurrently and the answers are
// merged positionally (Results[i] ↔ Requests[i]).
func (c *Client) BatchResolve(ctx context.Context, req *wire.BatchResolveRequest) (*wire.BatchResolveResponse, error) {
	type home struct {
		owner string
		at    []int // positions in req.Requests
	}
	var homes []home
	byAddr := map[string]int{}
	for i, r := range req.Requests {
		owner := c.ownerOf(r.Path)
		addr := c.dir.AddrFor(owner)
		h, ok := byAddr[addr]
		if !ok {
			h, byAddr[addr] = len(homes), len(homes)
			homes = append(homes, home{owner: owner})
		}
		homes[h].at = append(homes[h].at, i)
	}
	if len(homes) == 0 {
		homes = append(homes, home{}) // an empty batch is the directory's to refuse
	}
	resp := &wire.BatchResolveResponse{Results: make([]wire.BatchResolveEntry, len(req.Requests))}
	err := flight.ForEach(ctx, len(homes), 0, func(h int) error {
		part := wire.BatchResolveRequest{Requests: make([]wire.ResolveRequest, len(homes[h].at))}
		for j, i := range homes[h].at {
			part.Requests[j] = req.Requests[i]
		}
		var got wire.BatchResolveResponse
		if err := c.dir.Call(ctx, homes[h].owner, wire.TypeBatchResolve, &part, &got); err != nil {
			return err
		}
		if len(got.Results) != len(part.Requests) {
			return fmt.Errorf("gupster: batch answered %d of %d entries", len(got.Results), len(part.Requests))
		}
		for j, i := range homes[h].at {
			resp.Results[i] = got.Results[j]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// BatchResult is the outcome of one path of a GetBatch.
type BatchResult struct {
	Doc *xmltree.Node
	Err error
}

// GetBatch fetches several profile paths through one batch-resolve frame
// per home shard (amortizing framing and MDM round trips) and follows each entry's
// referrals on the client's bounded fan-out pool. Results are positional
// and independent — one denied path does not fail its siblings.
func (c *Client) GetBatch(ctx context.Context, paths []string) ([]BatchResult, error) {
	ctx, finish := c.startRoot(ctx, "client.get-batch")
	out, err := c.getBatch(ctx, paths)
	finish(err)
	return out, err
}

func (c *Client) getBatch(ctx context.Context, paths []string) ([]BatchResult, error) {
	reqs := make([]wire.ResolveRequest, len(paths))
	for i, p := range paths {
		reqs[i] = wire.ResolveRequest{
			Path:    p,
			Context: c.contextFor(policy.PurposeQuery),
			Verb:    token.VerbFetch,
		}
	}
	resp, err := c.BatchResolve(ctx, &wire.BatchResolveRequest{Requests: reqs})
	if err != nil {
		return nil, err
	}
	out := make([]BatchResult, len(paths))
	if len(paths) > 1 {
		c.pipe.FanOuts.Add(1)
		c.pipe.FanOutCalls.Add(uint64(len(paths)))
	}
	_ = flight.ForEach(ctx, len(paths), 0, func(i int) error {
		entry := resp.Results[i]
		if entry.Error != "" {
			out[i].Err = fmt.Errorf("gupster: %s", entry.Error)
			return nil
		}
		if entry.Response == nil {
			out[i].Err = fmt.Errorf("gupster: batch entry %d has no response", i)
			return nil
		}
		out[i].Doc, out[i].Err = c.FollowReferrals(ctx, entry.Response)
		return nil
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// GetVia fetches through a server-side pattern (chaining or recruiting):
// one round trip, data comes back from the MDM.
func (c *Client) GetVia(ctx context.Context, path string, pattern wire.QueryPattern) (*xmltree.Node, error) {
	ctx, finish := c.startRoot(ctx, "client.resolve")
	doc, err := c.getVia(ctx, path, pattern)
	finish(err)
	return doc, err
}

func (c *Client) getVia(ctx context.Context, path string, pattern wire.QueryPattern) (*xmltree.Node, error) {
	resp, err := c.Resolve(ctx, &wire.ResolveRequest{
		Path:    path,
		Context: c.contextFor(policy.PurposeQuery),
		Verb:    token.VerbFetch,
		Pattern: pattern,
	})
	if err != nil {
		return nil, err
	}
	if resp.Data == "" {
		return nil, nil
	}
	return xmltree.ParseString(resp.Data)
}

// FollowReferrals executes a referral-pattern response: alternatives are
// tried in ascending order of observed store latency (closest replica
// first, §5.3), pieces within an alternative fetched concurrently and
// merged. Alternatives whose stores have tripped circuit breakers sink
// to the back of the order — they stay reachable as a last resort, but a
// healthy replica is always preferred (fallback-to-next-covering-store).
func (c *Client) FollowReferrals(ctx context.Context, resp *wire.ResolveResponse) (*xmltree.Node, error) {
	if resp.Data != "" {
		return xmltree.ParseString(resp.Data)
	}
	alts := resp.Alternatives
	if !c.DisableLatencyRouting {
		alts = append([]wire.Alternative(nil), alts...)
		sort.SliceStable(alts, func(i, j int) bool {
			return c.latencyScore(alts[i]) < c.latencyScore(alts[j])
		})
	}
	x := c.plans()
	return store.Run(ctx, x, alts, x.Fetch)
}

// Update resolves an update grant and writes the fragment to every store
// fully covering the component (profile data is stored redundantly, §2.3
// requirement 4; a write must reach all replicas). It returns the number of
// stores written.
func (c *Client) Update(ctx context.Context, path string, frag *xmltree.Node) (int, error) {
	ctx, finish := c.startRoot(ctx, "client.update")
	n, err := c.update(ctx, path, frag)
	finish(err)
	return n, err
}

func (c *Client) update(ctx context.Context, path string, frag *xmltree.Node) (int, error) {
	resp, err := c.Resolve(ctx, &wire.ResolveRequest{
		Path:    path,
		Context: c.contextFor(policy.PurposeProvision),
		Verb:    token.VerbUpdate,
	})
	if err != nil {
		return 0, err
	}
	x := c.plans()
	written := 0
	seen := map[string]bool{}
	for _, alt := range resp.Alternatives {
		for _, ref := range alt.Referrals {
			key := ref.Query.Store + "\x00" + ref.Query.Path
			if seen[key] {
				continue
			}
			seen[key] = true
			// For partial referrals the store only holds a piece: extract
			// the matching piece of the fragment if possible.
			toWrite := frag
			if alt.Merge != "" {
				if sub := extractForReferral(frag, ref); sub != nil {
					toWrite = sub
				}
			}
			// Component writes are scoped replaces, so retrying one is
			// idempotent.
			err := x.Call(ctx, ref.Address, func(actx context.Context, sc store.Client) error {
				_, err := sc.Update(actx, ref.Query, toWrite)
				return err
			})
			if err != nil {
				return written, err
			}
			written++
		}
	}
	if written == 0 {
		return 0, ErrNoCoverage
	}
	return written, nil
}

// extractForReferral narrows an update fragment to the piece a
// partial-cover store is responsible for: the container pruned to the
// children matching the referral's granted path (the store applies it as a
// scoped replace). frag is rooted at the component element; the granted
// path ends inside it. An empty container (all matching items removed)
// is a valid result.
func extractForReferral(frag *xmltree.Node, ref wire.Referral) *xmltree.Node {
	p, err := ref.Query.ParsedPath()
	if err != nil || len(p.Steps) == 0 {
		return nil
	}
	// Find the suffix of the granted path starting at the fragment's
	// element name.
	for i, s := range p.Steps {
		if s.Name == frag.Name || s.Name == "*" {
			sub := xpath.Path{Steps: p.Steps[i:]}
			if len(sub.Steps) == 1 {
				return frag
			}
			if got := xpath.Extract(frag, sub); got != nil {
				return got
			}
			// No children match: send the bare container so the store
			// clears its piece.
			return frag.Bare()
		}
	}
	return nil
}

// subRecord is the client's durable record of one push subscription: what
// was subscribed and where notifications go, under the stable handle id the
// caller holds. conn is the socket the subscription rides now, nil while it
// is being re-homed.
type subRecord struct {
	id      uint64
	path    string
	handler func(wire.Notification)
	conn    *wire.Client
}

// SetReconnectAddrs supplies extra directory addresses (constellation
// members, shard peers) the client may fall back to when the ones it has
// learnt stop answering — for requests and for re-homing subscriptions
// alike.
func (c *Client) SetReconnectAddrs(addrs []string) {
	c.dir.AddSeeds(addrs...)
}

// Subscribe registers a push subscription; handler runs on the
// subscription's notification loop and must not block. The returned handle
// stays valid across leader failovers and shard handoffs: when the serving
// node dies or cancels the subscription with a tombstone, the client
// re-subscribes on the constellation transparently and keeps delivering
// under the same handle.
func (c *Client) Subscribe(ctx context.Context, path string, handler func(wire.Notification)) (uint64, error) {
	c.subMu.Lock()
	c.subNextID++
	rec := &subRecord{id: c.subNextID, path: path, handler: handler}
	c.subRecs[rec.id] = rec
	c.subMu.Unlock()
	if err := c.home(ctx, rec); err != nil {
		c.subMu.Lock()
		delete(c.subRecs, rec.id)
		c.subMu.Unlock()
		return 0, err
	}
	return rec.id, nil
}

// Unsubscribe cancels a subscription by closing its socket: the serving
// node drops a subscription with its connection.
func (c *Client) Unsubscribe(_ context.Context, subID uint64) error {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	if rec := c.subRecs[subID]; rec != nil && rec.conn != nil {
		rec.conn.Close()
	}
	delete(c.subRecs, subID)
	return nil
}

// home subscribes rec on a socket of its own, which the directory handle
// opens wherever rec's owner is served now; the socket carries rec's
// notifications alone. A tombstone closes it, and its disconnect, whatever
// the cause, re-homes rec: leader failover, snapshot reset and shard
// handoff take the one path.
func (c *Client) home(ctx context.Context, rec *subRecord) error {
	req := &wire.SubscribeRequest{Path: rec.path, Context: c.contextFor(policy.PurposeSubscribe)}
	conn, err := c.dir.Dedicated(ctx, c.ownerOf(rec.path), wire.TypeSubscribe, req, nil)
	if err != nil {
		return err
	}
	conn.OnNotify(func(msgType string, payload wire.Payload) {
		var n wire.Notification
		if msgType != wire.TypeNotify || wire.Unmarshal(payload, &n) != nil {
			return
		}
		if n.Canceled {
			conn.Close()
			return
		}
		n.SubID = rec.id
		rec.handler(n)
	})
	conn.OnDisconnect(func(error) { c.rehome(rec, conn) })
	c.subMu.Lock()
	defer c.subMu.Unlock()
	switch {
	case c.subClosed || c.subRecs[rec.id] != rec:
		conn.Close() // cancelled meanwhile
	case !conn.Alive():
		return wire.ErrClosed // lost before its hook could see it as rec's
	default:
		rec.conn = conn
	}
	return nil
}

// rehome runs when a subscription's socket ends, and subscribes the record
// again under its handle for up to 10 s. Without it a leader failover
// silently orphans the subscription: the client keeps a dead handle and the
// next change is never delivered. A record that moved on, was cancelled, or
// belongs to a closed client is left alone.
func (c *Client) rehome(rec *subRecord, dead *wire.Client) {
	c.subMu.Lock()
	mine := rec.conn == dead && !c.subClosed && c.subRecs[rec.id] == rec
	if mine {
		rec.conn = nil
	}
	c.subMu.Unlock()
	for deadline := time.Now().Add(10 * time.Second); mine && time.Now().Before(deadline); {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := c.home(ctx, rec)
		cancel()
		if err == nil {
			return
		}
		time.Sleep(100 * time.Millisecond)
		c.subMu.Lock()
		mine = !c.subClosed && c.subRecs[rec.id] == rec
		c.subMu.Unlock()
	}
}

// PutRule provisions a privacy-shield rule for owner (self-provisioning —
// "enter once, use everywhere" requires the owner to stay in control).
func (c *Client) PutRule(ctx context.Context, owner string, rule policy.Rule) error {
	return c.dir.Call(ctx, owner, wire.TypePutRule, &wire.PutRuleRequest{
		Owner: owner,
		Rule:  encodeRule(rule),
	}, nil)
}

// DeleteRule removes a rule.
func (c *Client) DeleteRule(ctx context.Context, owner, ruleID string) error {
	return c.dir.Call(ctx, owner, wire.TypeDeleteRule, &wire.DeleteRuleRequest{Owner: owner, RuleID: ruleID}, nil)
}

// SyncDeviceComponent resolves an update grant for path and runs one sync
// session for the device against the first fully-covering store.
func (c *Client) SyncDeviceComponent(ctx context.Context, path string, dev *syncml.Device, pol syncml.Policy) (syncml.Stats, error) {
	resp, err := c.Resolve(ctx, &wire.ResolveRequest{
		Path:    path,
		Context: c.contextFor(policy.PurposeSync),
		Verb:    token.VerbUpdate,
	})
	if err != nil {
		return syncml.Stats{}, err
	}
	for _, alt := range resp.Alternatives {
		if len(alt.Referrals) != 1 {
			continue // sync needs a single authoritative store
		}
		ref := alt.Referrals[0]
		sc, err := c.plans().Client(ctx, ref.Address)
		if err != nil {
			return syncml.Stats{}, err
		}
		return dev.Sync(ctx, sc.SyncTransport(ref.Query), pol)
	}
	return syncml.Stats{}, fmt.Errorf("gupster: no single-store referral to sync %s against", path)
}

// Provenance fetches the caller's own disclosure ledger (who accessed what
// of my profile) — the §7 data-provenance challenge. Only the owner may
// read it.
func (c *Client) Provenance(ctx context.Context, sinceSeq uint64) ([]wire.ProvenanceRecord, error) {
	var resp wire.ProvenanceResponse
	err := c.dir.Call(ctx, "", wire.TypeProvenance, &wire.ProvenanceRequest{
		Owner: c.Identity, Requester: c.Identity, SinceSeq: sinceSeq,
	}, &resp)
	return resp.Records, err
}

// ProvenanceSummary fetches the per-requester disclosure rollup.
func (c *Client) ProvenanceSummary(ctx context.Context) ([]wire.ProvenanceSummary, error) {
	var resp wire.ProvenanceResponse
	err := c.dir.Call(ctx, "", wire.TypeProvenance, &wire.ProvenanceRequest{
		Owner: c.Identity, Requester: c.Identity, Summarize: true,
	}, &resp)
	return resp.Summaries, err
}

// ShardMap returns the directory's shard map as the client has learnt it
// (asked at dial time, refreshed by redirects); the zero map when the
// directory is unsharded.
func (c *Client) ShardMap() wire.ShardMap { return c.dir.Map() }

// Membership fetches the dialed shard's gossip membership view; a node
// running no failure detector refuses the call.
func (c *Client) Membership(ctx context.Context) (*wire.MembershipResponse, error) {
	var resp wire.MembershipResponse
	if err := c.dir.Call(ctx, "", wire.TypeMembership, wire.Empty{}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats fetches the MDM's counters.
func (c *Client) Stats(ctx context.Context) (*wire.StatsResponse, error) {
	var resp wire.StatsResponse
	if err := c.dir.Call(ctx, "", wire.TypeStats, wire.Empty{}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
