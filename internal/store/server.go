package store

import (
	"context"
	"errors"
	"fmt"
	"time"

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
		sync:   &syncml.Server{Store: e, Keys: e.Keys, Adjuncts: e.Adjuncts},
		Tracer: trace.NewCollector("store", 0, 0),
		siblings: Executor{
			Pool:       &wire.Pool{},
			Resilience: resilience.NewGroup(resilience.Policy{}, resilience.BreakerConfig{}, nil),
			Pipe:       &metrics.PipelineStats{},
		},
	}
}

// traceCtx derives the serving context and span for a traced request: when
// the frame carries a span header the store's spans join the caller's
// trace and ride back on the reply. The parent carries the request's
// budget deadline, which the traced context inherits so sibling fetches
// (exec) stay inside the caller's remaining time. The caller must Finish
// the span before replying.
func (s *Server) traceCtx(parent context.Context, m *wire.Message, name string) (context.Context, *trace.Active) {
	if m.Trace == nil {
		return parent, nil
	}
	rec := trace.NewRequestRecorder(s.Tracer)
	m.SetSpanDrain(rec.Drain)
	ctx := trace.WithRemote(parent, m.Trace, "store", rec)
	ctx, sp := trace.Start(ctx, name)
	sp.Annotate("store=" + s.Engine.ID())
	return ctx, sp
}

// Start listens on addr ("127.0.0.1:0" picks a port).
func (s *Server) Start(addr string) error {
	ws, err := wire.Serve(addr, wire.HandlerFunc(s.serve))
	if err != nil {
		return err
	}
	s.ws = ws
	return nil
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

func (s *Server) serve(c *wire.ServerConn, m *wire.Message) {
	// The request's remaining budget (if stamped) bounds everything the
	// store does on its behalf, including exec's sibling fetches.
	ctx, cancel := wire.BudgetContext(context.Background(), m)
	defer cancel()

	class := overload.Classify(m.Type)
	if ra, expired := s.Admission.ExpiredOnArrival(ctx, class); expired {
		s.shed(c, m, ra, "budget expired on arrival")
		return
	}
	release, err := s.Admission.Acquire(ctx, class)
	if err != nil {
		var shed *overload.ShedError
		if errors.As(err, &shed) {
			s.shed(c, m, shed.RetryAfter, shed.Reason)
		} else {
			s.shed(c, m, s.Admission.RetryAfter(class), "request expired in admission queue")
		}
		return
	}
	defer release()

	switch m.Type {
	case wire.TypeFetch:
		err = s.handleFetch(ctx, c, m)
	case wire.TypeUpdate:
		err = s.handleUpdate(ctx, c, m)
	case wire.TypeSyncStart:
		err = s.handleSyncStart(c, m)
	case wire.TypeSyncDelta:
		err = s.handleSyncDelta(c, m)
	case wire.TypeExec:
		err = s.handleExec(ctx, c, m)
	default:
		err = fmt.Errorf("store: unknown message type %q", m.Type)
	}
	if err != nil {
		_ = c.ReplyError(m, err)
	}
}

// shed answers a refused request with an overloaded frame; one-way frames
// drop silently.
func (s *Server) shed(c *wire.ServerConn, m *wire.Message, retryAfter time.Duration, reason string) {
	if m.ID == 0 {
		return
	}
	_ = c.ReplyOverloaded(m, retryAfter, reason)
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

func (s *Server) handleFetch(ctx context.Context, c *wire.ServerConn, m *wire.Message) error {
	var req wire.FetchRequest
	if err := wire.Unmarshal(m.Payload, &req); err != nil {
		return err
	}
	// The span finishes before Reply so the drain sees it on the frame.
	_, sp := s.traceCtx(ctx, m, "store.fetch")
	resp, err := s.fetch(&req)
	sp.Finish(err)
	if err != nil {
		return err
	}
	return c.Reply(m, resp)
}

func (s *Server) fetch(req *wire.FetchRequest) (wire.FetchResponse, error) {
	owner, path, err := s.authorize(&req.Query, token.VerbFetch)
	if err != nil {
		return wire.FetchResponse{}, err
	}
	doc, v, err := s.Engine.Get(owner, path)
	if err != nil {
		if errors.Is(err, ErrNoUser) || errors.Is(err, ErrNoComponent) {
			// Registered but empty: answer with an empty result rather than
			// an error so clients can merge across stores uniformly.
			return wire.FetchResponse{}, nil
		}
		return wire.FetchResponse{}, err
	}
	return wire.FetchResponse{XML: doc.String(), Version: v}, nil
}

func (s *Server) handleUpdate(ctx context.Context, c *wire.ServerConn, m *wire.Message) error {
	var req wire.UpdateRequest
	if err := wire.Unmarshal(m.Payload, &req); err != nil {
		return err
	}
	_, sp := s.traceCtx(ctx, m, "store.update")
	resp, err := s.update(&req)
	sp.Finish(err)
	if err != nil {
		return err
	}
	return c.Reply(m, resp)
}

func (s *Server) update(req *wire.UpdateRequest) (wire.UpdateResponse, error) {
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

func (s *Server) handleSyncStart(c *wire.ServerConn, m *wire.Message) error {
	var req wire.SyncStartRequest
	if err := wire.Unmarshal(m.Payload, &req); err != nil {
		return err
	}
	// Synchronization reads and writes; it requires an update grant.
	owner, path, err := s.authorize(&req.Query, token.VerbUpdate)
	if err != nil {
		return err
	}
	resp, err := s.sync.HandleStart(owner, path, req.LastAnchor)
	if err != nil {
		return err
	}
	return c.Reply(m, resp)
}

func (s *Server) handleSyncDelta(c *wire.ServerConn, m *wire.Message) error {
	var req wire.SyncDeltaRequest
	if err := wire.Unmarshal(m.Payload, &req); err != nil {
		return err
	}
	owner, path, err := s.authorize(&req.Query, token.VerbUpdate)
	if err != nil {
		return err
	}
	resp, err := s.sync.HandleDelta(owner, path, &req)
	if err != nil {
		return err
	}
	return c.Reply(m, resp)
}

// handleExec implements the recruiting pattern (§5.2): this store serves its
// own piece, fetches the sibling pieces from their stores, merges, and
// returns the result — the client makes one round trip.
func (s *Server) handleExec(ctx context.Context, c *wire.ServerConn, m *wire.Message) error {
	var req wire.ExecRequest
	if err := wire.Unmarshal(m.Payload, &req); err != nil {
		return err
	}
	ctx, sp := s.traceCtx(ctx, m, "store.exec")
	resp, err := s.exec(ctx, &req)
	sp.Finish(err)
	if err != nil {
		return err
	}
	return c.Reply(m, resp)
}

func (s *Server) exec(ctx context.Context, req *wire.ExecRequest) (wire.ExecResponse, error) {
	owner, path, err := s.authorize(&req.Primary.Query, token.VerbFetch)
	if err != nil {
		return wire.ExecResponse{}, err
	}
	// The primary piece merges first, then the siblings in referral order.
	// The traced ctx rides into the sibling fetches so their stores' spans
	// join the trace one hop deeper.
	pieces, err := s.siblings.pieces(ctx, req.Siblings)
	if err != nil {
		return wire.ExecResponse{}, fmt.Errorf("store: recruit: %w", err)
	}
	if doc, _, gerr := s.Engine.Get(owner, path); gerr == nil {
		pieces = append([]*xmltree.Node{doc}, pieces...)
	}
	resp := wire.ExecResponse{}
	if merged := xmltree.MergeAll(s.Engine.Keys, pieces...); merged != nil {
		resp.XML = merged.String()
	}
	return resp, nil
}
