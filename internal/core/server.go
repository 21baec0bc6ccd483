package core

import (
	"context"
	"fmt"

	"gupster/internal/coverage"
	"gupster/internal/policy"
	"gupster/internal/trace"
	"gupster/internal/wire"
	"gupster/internal/xpath"
)

// Server exposes an MDM over the wire protocol (Figure 7: clients and data
// stores both talk to the GUPster server).
type Server struct {
	MDM *MDM
	// Mux serves the directory's frames: one route per message type, the
	// MDM's trace join and its admission controller (DESIGN.md §18). A
	// layer that changes how a directory frame is served — federation's
	// delegating resolve, replication's leader gate — re-routes or wraps there before the server starts; a
	// layer with frames of its own puts its own Mux in front, with Handle as
	// the fallback.
	Mux *wire.Mux
	ws  *wire.Server
}

// NewServer wraps an MDM; call Start.
func NewServer(m *MDM) *Server {
	s := &Server{MDM: m, Mux: &wire.Mux{Admit: m.Admission().Admit}}
	// Spans recorded while serving a traced frame join the caller's trace
	// in the MDM's collector. The MDM never piggybacks spans back down to
	// the requester — the trace directory lives here, the client reports its
	// own spans out-of-band, and span payload on the client-facing reply
	// would tax every response frame with data the directory already holds
	// (E17 measures exactly that: on a slow link the extra bytes cost the
	// coalesce leader a full store-and-forward hop).
	s.Mux.Join = func(ctx context.Context, msg *wire.Message) context.Context {
		return trace.WithRemote(ctx, msg.Trace, "mdm", m.Tracer())
	}
	wire.Route(s.Mux, wire.TypeResolve, m.Resolve)
	// Entries of a batch fail independently: a denied or uncovered entry
	// carries its error string while its siblings still return data.
	wire.Route(s.Mux, wire.TypeBatchResolve, m.BatchResolve)
	wire.Route(s.Mux, wire.TypeTrace, func(_ context.Context, req *wire.TraceRequest) (wire.TraceResponse, error) {
		return wire.TraceResponse{Spans: m.Tracer().Trace(req.TraceID)}, nil
	})
	wire.Route(s.Mux, wire.TypeSlow, func(_ context.Context, req *wire.SlowRequest) (wire.SlowResponse, error) {
		return wire.SlowResponse{Traces: m.Tracer().Slow(req.Max)}, nil
	})
	wire.Route(s.Mux, wire.TypeRegister, s.register)
	wire.Route(s.Mux, wire.TypeUnregister, s.unregister)
	wire.Route(s.Mux, wire.TypeHeartbeat, func(_ context.Context, req *wire.HeartbeatRequest) (*wire.HeartbeatResponse, error) {
		return m.Heartbeat(req), nil
	})
	wire.Route(s.Mux, wire.TypePutRule, func(_ context.Context, req *wire.PutRuleRequest) (wire.Empty, error) {
		return wire.Empty{}, m.PutRule(req.Owner, req)
	})
	wire.Route(s.Mux, wire.TypeDeleteRule, func(_ context.Context, req *wire.DeleteRuleRequest) (wire.Empty, error) {
		return wire.Empty{}, m.DeleteRule(req.Owner, req.RuleID)
	})
	wire.Route(s.Mux, wire.TypeChanged, func(_ context.Context, n *wire.ChangedNotice) (wire.Empty, error) {
		m.HandleChanged(n)
		return wire.Empty{}, nil
	})
	wire.Route(s.Mux, wire.TypeStats, func(context.Context, *wire.Empty) (wire.StatsResponse, error) {
		return m.Snapshot(), nil
	})
	wire.Route(s.Mux, wire.TypeProvenance, s.provenance)
	wire.Handle(s.Mux, wire.TypeSubscribe, s.handleSubscribe)
	wire.Handle(s.Mux, wire.TypeTraceReport, s.handleTraceReport)
	return s
}

// Start listens on addr.
func (s *Server) Start(addr string) error {
	ws, err := wire.Serve(addr, s.Mux)
	if err != nil {
		return err
	}
	s.ws = ws
	return nil
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ws.Addr() }

// Close stops the server.
func (s *Server) Close() error { return s.ws.Close() }

// Handle dispatches one message; exported so outer layers (replication,
// shard routing) can embed a core server behind their own listener.
func (s *Server) Handle(c *wire.ServerConn, m *wire.Message) { s.Mux.ServeWire(c, m) }

// handleTraceReport ingests a client's finished trace. It is a raw handler
// because reports are one-way frames (ID 0): a bad one is dropped, a good
// one gets no answer. Clients report over a dedicated connection, so
// ingesting inline on the serve goroutine delays no resolves.
func (s *Server) handleTraceReport(c *wire.ServerConn, m *wire.Message, req *wire.TraceReportRequest) {
	s.MDM.Tracer().Ingest(req.Spans)
	_ = c.Reply(m, wire.Empty{})
}

// handleSubscribe is a raw handler because a subscription lives on the
// connection: notifications are pushed down it and it ends with it, which
// is how a subscriber unsubscribes.
func (s *Server) handleSubscribe(c *wire.ServerConn, m *wire.Message, req *wire.SubscribeRequest) {
	cancel, err := s.MDM.Subscribe(req, func(n wire.Notification) {
		_ = c.Notify(wire.TypeNotify, n)
	})
	if err != nil {
		_ = c.ReplyError(m, err)
		return
	}
	c.OnClose(cancel)
	_ = c.Reply(m, wire.Empty{})
}

func (s *Server) register(_ context.Context, req *wire.RegisterRequest) (wire.Empty, error) {
	p, err := xpath.Parse(req.Path)
	if err != nil {
		return wire.Empty{}, err
	}
	return wire.Empty{}, s.MDM.Register(coverage.StoreID(req.Store), req.Address, p)
}

func (s *Server) unregister(_ context.Context, req *wire.UnregisterRequest) (wire.Empty, error) {
	p, err := xpath.Parse(req.Path)
	if err != nil {
		return wire.Empty{}, err
	}
	return wire.Empty{}, s.MDM.Unregister(coverage.StoreID(req.Store), p)
}

func (s *Server) provenance(_ context.Context, req *wire.ProvenanceRequest) (wire.ProvenanceResponse, error) {
	var resp wire.ProvenanceResponse
	ledger := s.MDM.Provenance()
	if ledger == nil {
		return resp, fmt.Errorf("gupster: provenance ledger not enabled")
	}
	// Disclosure data is itself sensitive: only the owner reads her ledger.
	if req.Requester != req.Owner {
		return resp, fmt.Errorf("%w: provenance of %s for %s", ErrDenied, req.Owner, req.Requester)
	}
	if req.Summarize {
		for _, d := range ledger.Summary(req.Owner) {
			resp.Summaries = append(resp.Summaries, wire.ProvenanceSummary{
				Requester: d.Requester, Paths: d.Paths,
				Grants: d.Grants, Denials: d.Denials, LastUnix: d.LastSeen.Unix(),
			})
		}
	} else {
		for _, r := range ledger.ByOwner(req.Owner, req.SinceSeq) {
			resp.Records = append(resp.Records, wire.ProvenanceRecord{
				Seq: r.Seq, TimeUnix: r.Time.Unix(), Path: r.Path,
				Requester: r.Requester, Role: r.Role, Purpose: r.Purpose,
				Verb: r.Verb, Outcome: string(r.Outcome), RuleID: r.RuleID,
				Grants: r.Grants, Stores: r.Stores,
			})
		}
	}
	return resp, nil
}

// decodeRule converts the wire form of a rule into a policy rule.
func decodeRule(r wire.RulePayload) (policy.Rule, error) {
	p, err := xpath.Parse(r.Path)
	if err != nil {
		return policy.Rule{}, err
	}
	cond, err := policy.ParseCond(r.Cond)
	if err != nil {
		return policy.Rule{}, err
	}
	eff := policy.Deny
	switch r.Effect {
	case "permit":
		eff = policy.Permit
	case "deny", "":
	default:
		return policy.Rule{}, fmt.Errorf("gupster: unknown effect %q", r.Effect)
	}
	return policy.Rule{ID: r.ID, Path: p, Cond: cond, Effect: eff, Priority: r.Priority}, nil
}

// encodeRule is the inverse of decodeRule, used by the client.
func encodeRule(r policy.Rule) wire.RulePayload {
	return wire.RulePayload{
		ID:       r.ID,
		Path:     r.Path.String(),
		Effect:   r.Effect.String(),
		Priority: r.Priority,
		Cond:     policy.Encode(r.Cond),
	}
}
