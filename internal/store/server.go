package store

import (
	"context"
	"errors"
	"fmt"

	"gupster/internal/metrics"
	"gupster/internal/overload"
	"gupster/internal/resilience"
	"gupster/internal/syncml"
	"gupster/internal/token"
	"gupster/internal/trace"
	"gupster/internal/wire"
	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

// Server exposes an Engine over the wire protocol, enforcing the paper's
// access discipline (§5.3): every operation must carry a query signed by
// the MDM, addressed to this store, fresh, and with the right verb. The
// store itself keeps no access-control policy — that is the point of the
// signed-referral design.
type Server struct {
	Engine *Engine
	Signer *token.Signer
	sync   *syncml.Server
	ws     *wire.Server
	// Tracer records the store's share of traced requests.
	Tracer *trace.Collector
	// Admission gates the wire dispatch like the MDM's controller does:
	// fetches and execs outrank updates and sync traffic, and both classes
	// shed with a retry-after hint when saturated. Nil (the default)
	// admits everything.
	Admission *overload.Controller

	// siblings fetches the other stores' pieces of a recruited query.
	siblings Executor
}

// NewServer wraps an engine. Call Start to begin serving.
func NewServer(e *Engine, signer *token.Signer) *Server {
	return &Server{
		Engine: e,
		Signer: signer,
		sync:   &syncml.Server{Store: e, Keys: xmltree.DefaultKeys, Adjuncts: e.Adjuncts},
		Tracer: trace.NewCollector("store", 0, 0),
		siblings: Executor{
			Pool:       &wire.Pool{},
			Resilience: resilience.NewGroup(resilience.Policy{}, resilience.BreakerConfig{}, nil),
			Pipe:       &metrics.PipelineStats{},
		},
	}
}

// Stats is the store's share of the counters a StatsResponse carries: its
// per-hop latencies, its trace collector's counts and its admission
// control.
func (s *Server) Stats() wire.StatsResponse {
	resp := wire.StatsResponse{
		Hops:         s.Tracer.HopStats(),
		TraceSpans:   s.Tracer.SpanCount(),
		TraceDropped: s.Tracer.Dropped(),
	}
	s.Admission.Report(&resp)
	return resp
}

// Start listens on addr ("127.0.0.1:0" picks a port).
func (s *Server) Start(addr string) error {
	ws, err := wire.Serve(addr, s.mux())
	if err != nil {
		return err
	}
	s.ws = ws
	return nil
}

// mux builds the store's dispatcher (DESIGN.md §18). It is built at Start
// because Admission is a field the owner sets after NewServer.
func (s *Server) mux() *wire.Mux {
	x := &wire.Mux{Admit: s.Admission.Admit}
	// The store's spans join the caller's trace and ride back on the reply.
	x.Join = func(ctx context.Context, m *wire.Message) context.Context {
		rec := trace.NewRequestRecorder(s.Tracer)
		m.SetSpanDrain(rec.Drain)
		return trace.WithRemote(ctx, m.Trace, "store", rec)
	}
	wire.Route(x, wire.TypeFetch, spanned(s, "store.fetch", s.fetch))
	wire.Route(x, wire.TypeUpdate, spanned(s, "store.update", s.update))
	wire.Route(x, wire.TypeExec, spanned(s, "store.exec", s.exec))
	wire.Route(x, wire.TypeSyncStart, s.syncStart)
	wire.Route(x, wire.TypeSyncDelta, s.syncDelta)
	return x
}

// spanned runs a route under the store's entry span. The span covers the
// call alone — not the admission wait before it — and has finished by the
// time the dispatcher drains the request's spans onto the reply. The
// traced context rides into the route so exec's sibling fetches join the
// trace one hop deeper.
func spanned[Req, Resp any](s *Server, name string, fn func(context.Context, *Req) (Resp, error)) func(context.Context, *Req) (Resp, error) {
	return func(ctx context.Context, req *Req) (Resp, error) {
		ctx, sp := trace.Start(ctx, name)
		if sp != nil {
			sp.Annotate("store=" + s.Engine.ID())
		}
		resp, err := fn(ctx, req)
		sp.Finish(err)
		return resp, err
	}
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ws.Addr() }

// Close stops the server: the listener and inbound connections first, so
// no exec is left to ask for a sibling connection, then those.
func (s *Server) Close() error {
	err := s.ws.Close()
	s.siblings.Pool.Close()
	return err
}

// authorize verifies a signed query for a verb and returns its owner and
// granted path.
func (s *Server) authorize(q *token.SignedQuery, verb token.Verb) (string, xpath.Path, error) {
	if err := s.Signer.Verify(q, s.Engine.ID(), verb); err != nil {
		return "", xpath.Path{}, err
	}
	p, err := q.ParsedPath()
	if err != nil {
		return "", xpath.Path{}, err
	}
	return q.Owner, p, nil
}

func (s *Server) fetch(_ context.Context, req *wire.FetchRequest) (wire.FetchResponse, error) {
	owner, path, err := s.authorize(&req.Query, token.VerbFetch)
	if err != nil {
		return wire.FetchResponse{}, err
	}
	xml, v, err := s.Engine.GetXML(owner, path)
	if err != nil {
		if errors.Is(err, ErrNoUser) || errors.Is(err, ErrNoComponent) {
			// Registered but empty: answer with an empty result rather than
			// an error so clients can merge across stores uniformly.
			return wire.FetchResponse{}, nil
		}
		return wire.FetchResponse{}, err
	}
	return wire.FetchResponse{XML: xml, Version: v}, nil
}

func (s *Server) update(_ context.Context, req *wire.UpdateRequest) (wire.UpdateResponse, error) {
	owner, path, err := s.authorize(&req.Query, token.VerbUpdate)
	if err != nil {
		return wire.UpdateResponse{}, err
	}
	frag, err := xmltree.ParseString(req.XML)
	if err != nil {
		return wire.UpdateResponse{}, fmt.Errorf("store: update body: %w", err)
	}
	v, err := s.Engine.Put(owner, path, frag)
	if err != nil {
		return wire.UpdateResponse{}, err
	}
	return wire.UpdateResponse{Version: v}, nil
}

// syncStart opens a sync session. Synchronization reads and writes; it
// requires an update grant.
func (s *Server) syncStart(_ context.Context, req *wire.SyncStartRequest) (*wire.SyncStartResponse, error) {
	owner, path, err := s.authorize(&req.Query, token.VerbUpdate)
	if err != nil {
		return nil, err
	}
	return s.sync.HandleStart(owner, path, req.LastAnchor)
}

func (s *Server) syncDelta(_ context.Context, req *wire.SyncDeltaRequest) (*wire.SyncDeltaResponse, error) {
	owner, path, err := s.authorize(&req.Query, token.VerbUpdate)
	if err != nil {
		return nil, err
	}
	return s.sync.HandleDelta(owner, path, req)
}

// exec implements the recruiting pattern (§5.2): this store serves its own
// piece, fetches the sibling pieces from their stores, merges, and returns
// the result — the client makes one round trip.
func (s *Server) exec(ctx context.Context, req *wire.ExecRequest) (wire.ExecResponse, error) {
	owner, path, err := s.authorize(&req.Primary.Query, token.VerbFetch)
	if err != nil {
		return wire.ExecResponse{}, err
	}
	// The primary piece merges first, then the siblings in referral order.
	// The traced ctx rides into the sibling fetches so their stores' spans
	// join the trace one hop deeper.
	pieces := make([]string, 1+len(req.Siblings))
	if err := s.siblings.pieces(ctx, req.Siblings, pieces[1:]); err != nil {
		return wire.ExecResponse{}, fmt.Errorf("store: recruit: %w", err)
	}
	// A store holding nothing under the path has no piece of its own.
	pieces[0], _, _ = s.Engine.GetXML(owner, path)
	xml, err := xmltree.MergeXML(xmltree.DefaultKeys, pieces...)
	if err != nil {
		return wire.ExecResponse{}, fmt.Errorf("store: recruit: %w", err)
	}
	return wire.ExecResponse{XML: xml}, nil
}
