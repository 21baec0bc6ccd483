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
// every path. It has three responsibilities: Call, Fetch (FetchXML for a
// server-side role) and, as the function Run, trying the alternatives.
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
// pool and deep-unions the pieces in referral order, for the client, whose
// API returns trees. Each piece is the tree of its own reply, held by
// nothing else, so they merge in place: a lone piece is the answer as
// parsed.
func (x Executor) Fetch(ctx context.Context, alt wire.Alternative) (*xmltree.Node, error) {
	replies := make([]string, len(alt.Referrals))
	if err := x.pieces(ctx, alt.Referrals, replies); err != nil {
		return nil, err
	}
	pieces := make([]*xmltree.Node, len(replies))
	for i, r := range replies {
		if r == "" {
			continue
		}
		var err error
		if pieces[i], err = xmltree.ParseString(r); err != nil {
			return nil, err
		}
	}
	return xmltree.MergeOwned(xmltree.DefaultKeys, pieces...), nil
}

// FetchXML is Fetch for a server-side role, which passes the component on
// as XML: the stores' replies are merged as they came, into the XML of the
// union, "" when no store holds anything.
func (x Executor) FetchXML(ctx context.Context, alt wire.Alternative) (string, error) {
	replies := make([]string, len(alt.Referrals))
	if err := x.pieces(ctx, alt.Referrals, replies); err != nil {
		return "", err
	}
	return xmltree.MergeXML(xmltree.DefaultKeys, replies...)
}

// pieces fetches refs concurrently into out: out[i] is the XML refs[i]
// answered, "" where the store holds nothing under the granted path.
func (x Executor) pieces(ctx context.Context, refs []wire.Referral, out []string) error {
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
			resp, err := c.fetch(actx, ref.Query)
			if err != nil {
				return err
			}
			if x.Observe != nil {
				x.Observe(ref.Address, time.Since(start))
			}
			out[i] = resp.XML
			return nil
		})
		sp.Finish(err)
		return err
	})
	return err
}

// Run executes a plan through x: alternatives whose every store's breaker
// admits traffic are tried first, in the order given, then the rest as a
// last resort; the first one try answers is the result. An answer from any
// but the first tried counts as a fallback; a plan nobody answers fails
// with the last error, ErrNoCoverage when there was nothing to try. T is
// what the role's try returns: the client's tree, or a server role's XML.
func Run[T any](ctx context.Context, x Executor, alts []wire.Alternative, try func(context.Context, wire.Alternative) (T, error)) (T, error) {
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
	var zero T
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
	return zero, lastErr
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
