package store

import (
	"context"
	"errors"
	"time"

	"gupster/internal/flight"
	"gupster/internal/metrics"
	"gupster/internal/resilience"
	"gupster/internal/trace"
	"gupster/internal/wire"
	"gupster/internal/xmltree"
)

// ErrNoCoverage reports a plan with no alternative left to answer it.
var ErrNoCoverage = errors.New("gupster: no data store covers the request")

// Executor runs the paper's query plans (§4.3, §5.2) against data stores:
// a plan is a list of alternatives joined by choice ("||"), each a set of
// signed referrals whose pieces merge. Every role that fetches — the
// client following referrals, the MDM chaining or recruiting, a recruited
// store gathering its siblings — executes plans through one of these, so
// connection reuse, retry, breaker and merge semantics are the same on
// every path. It has three responsibilities, one method each: Call, Fetch
// and Run.
//
// The roles differ observably in Span and Observe only; the other fields
// are what the role already owns.
type Executor struct {
	Pool       *wire.Pool
	Resilience *resilience.Group
	// FanOut bounds the workers fetching one alternative's referrals; 0
	// means flight.DefaultWorkers.
	FanOut int
	Pipe   *metrics.PipelineStats

	// Span, when set, names a trace span recorded around every referral
	// fetch. The client leaves it empty: the store's own span rides back on
	// the reply and Observe already times each store from this side, so a
	// span here would duplicate both at measurable per-request cost (E17).
	Span string
	// Observe, when set, receives the duration of every successful fetch —
	// the client's input to closest-replica ordering (§5.3). The MDM leaves
	// it nil and keeps the plan's deterministic order.
	Observe func(addr string, d time.Duration)
}

// Call runs fn against the store at addr on its pooled connection, under
// the resilience group: per-attempt timeouts, backoff retries and the
// store's breaker. Each attempt asks the pool again, so a retry after the
// connection died dials afresh while one after a shed or a timeout reuses
// the connection the other fetches are on.
func (x Executor) Call(ctx context.Context, addr string, fn func(context.Context, Client) error) error {
	return x.Resilience.Do(ctx, addr, func(actx context.Context) error {
		c, err := x.Client(actx, addr)
		if err != nil {
			return err
		}
		return fn(actx, c)
	})
}

// Client returns the store at addr on its pooled connection, for the
// caller that runs a session of its own on it (device sync).
func (x Executor) Client(ctx context.Context, addr string) (Client, error) {
	if addr == "" {
		return Client{}, errors.New("store: referral without a store address")
	}
	c, err := x.Pool.Get(ctx, addr)
	return Client{c: c}, err
}

// Fetch retrieves every referral of one alternative on a bounded worker
// pool and deep-unions the pieces in referral order. Each piece is the tree
// of its own reply, held by nothing else, so they merge in place: a lone
// piece is the answer as parsed.
func (x Executor) Fetch(ctx context.Context, alt wire.Alternative) (*xmltree.Node, error) {
	pieces, err := x.pieces(ctx, alt.Referrals)
	if err != nil {
		return nil, err
	}
	return xmltree.MergeOwned(xmltree.DefaultKeys, pieces...), nil
}

// pieces fetches refs concurrently; pieces[i] answers refs[i], nil where
// the store holds nothing under the granted path.
func (x Executor) pieces(ctx context.Context, refs []wire.Referral) ([]*xmltree.Node, error) {
	pieces := make([]*xmltree.Node, len(refs))
	if len(refs) > 1 {
		x.Pipe.FanOuts.Add(1)
		x.Pipe.FanOutCalls.Add(uint64(len(refs)))
	}
	err := flight.ForEach(ctx, len(refs), x.FanOut, func(i int) error {
		ref := refs[i]
		fctx, sp := ctx, (*trace.Active)(nil)
		if x.Span != "" {
			fctx, sp = trace.Start(ctx, x.Span)
			sp.Annotate("store=" + ref.Query.Store)
		}
		// Call, spelled out: one closure per fetch instead of two.
		err := x.Resilience.Do(fctx, ref.Address, func(actx context.Context) error {
			c, err := x.Client(actx, ref.Address)
			if err != nil {
				return err
			}
			start := time.Now()
			d, _, err := c.Fetch(actx, ref.Query)
			if err != nil {
				return err
			}
			if x.Observe != nil {
				x.Observe(ref.Address, time.Since(start))
			}
			pieces[i] = d
			return nil
		})
		sp.Finish(err)
		return err
	})
	return pieces, err
}

// Run executes a plan: alternatives whose every store's breaker admits
// traffic are tried first, in the order given, then the rest as a last
// resort; the first one try answers is the result. An answer from any but
// the first tried counts as a fallback; a plan nobody answers fails with
// the last error, ErrNoCoverage when there was nothing to try.
func (x Executor) Run(ctx context.Context, alts []wire.Alternative, try func(context.Context, wire.Alternative) (*xmltree.Node, error)) (*xmltree.Node, error) {
	// Breakers move while alternatives are tried, so the order is fixed
	// first — and costs nothing while every breaker is closed.
	order := alts
	if !x.available(alts...) {
		var tripped []wire.Alternative
		order = make([]wire.Alternative, 0, len(alts))
		for _, alt := range alts {
			if x.available(alt) {
				order = append(order, alt)
			} else {
				tripped = append(tripped, alt)
			}
		}
		order = append(order, tripped...)
	}
	lastErr := ErrNoCoverage
	for i, alt := range order {
		doc, err := try(ctx, alt)
		if err != nil {
			lastErr = err
			continue
		}
		if i > 0 {
			x.Resilience.Stats.Fallbacks.Add(1)
		}
		return doc, nil
	}
	return nil, lastErr
}

// available reports whether every store of the alternatives currently
// accepts traffic according to its breaker.
func (x Executor) available(alts ...wire.Alternative) bool {
	for _, alt := range alts {
		for _, ref := range alt.Referrals {
			if !x.Resilience.Available(ref.Address) {
				return false
			}
		}
	}
	return true
}
