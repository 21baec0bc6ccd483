package wire

import (
	"context"
	"fmt"
)

// Mux is the one way a node serves a frame (DESIGN.md §18). It is a
// Handler that routes by message type and performs, for every frame it
// routes, the same five steps in the same order:
//
//  1. the serving context: the frame's budget (BudgetContext), then the
//     node's trace join (Join),
//  2. admission (Admit) — the only place a refusal becomes a reply,
//  3. decode the payload into the route's request type,
//  4. call the route's function,
//  5. exactly one reply — the response, or the error — and none to a
//     one-way frame (Reply and ReplyError enforce that half).
//
// A type with no route goes to Fallback — the layer inside this one — or,
// without one, is answered with an error. Routes are registered before the
// Mux serves its first frame and never after; the fields likewise.
type Mux struct {
	// Join joins a frame that carries a trace header to the caller's trace:
	// it decides the site name, the recorder, and whether spans ride back
	// on the reply (m.SetSpanDrain). Nil serves untraced.
	Join func(ctx context.Context, m *Message) context.Context
	// Admit is overload.Controller.Admit (this package cannot import
	// overload): it classifies msgType and either grants a slot, to be
	// released when the frame has been answered, or refuses with an
	// *OverloadedError. Nil admits everything.
	Admit func(ctx context.Context, msgType string) (release func(), err error)
	// Fallback serves the types this Mux has no route for.
	Fallback Handler

	routes map[string]route
}

// route is one registered type: call (steps 3 and 4 of a typed route; the
// dispatcher replies) or raw (step 3, then a handler that answers the
// frame itself).
type route struct {
	call func(ctx context.Context, c *ServerConn, m *Message) (any, error)
	raw  func(c *ServerConn, m *Message)
}

// decode is step 3. A Req of Empty accepts a frame with or without a
// payload.
func decode[Req any](m *Message) (*Req, error) {
	req := new(Req)
	if _, empty := any(req).(*Empty); empty {
		return req, nil
	}
	return req, Unmarshal(m.Payload, req)
}

// Route registers fn as msgType's handler on x: the payload is decoded into
// a fresh Req, and what fn returns is the reply. A typed error
// (OverloadedError, NotLeaderError, WrongShardError) returned by fn,
// wrapped or not, reaches the caller as the same typed error.
func Route[Req, Resp any](x *Mux, msgType string, fn func(context.Context, *Req) (Resp, error)) {
	x.handle(msgType, route{call: func(ctx context.Context, _ *ServerConn, m *Message) (any, error) {
		req, err := decode[Req](m)
		if err != nil {
			return nil, err
		}
		return fn(ctx, req)
	}})
}

// Handle registers a raw handler for a frame the typed shape cannot
// express: h needs the connection, or answers from its own goroutine, or
// expects no answer. Steps 1 to 3 still run — a frame that fails to decode
// never reaches h — and h owns steps 4 and 5.
func Handle[Req any](x *Mux, msgType string, h func(c *ServerConn, m *Message, req *Req)) {
	x.handle(msgType, route{raw: func(c *ServerConn, m *Message) {
		req, err := decode[Req](m)
		if err != nil {
			_ = c.ReplyError(m, err)
			return
		}
		h(c, m, req)
	}})
}

func (x *Mux) handle(msgType string, r route) {
	if x.routes == nil {
		x.routes = make(map[string]route)
	}
	x.routes[msgType] = r
}

// Wrap runs around between admission and the reply of msgType's typed
// route: next is the route itself (decode, call), and what around returns
// is what the dispatcher replies. A layer uses it to refuse a frame before
// the route sees it, or to act on the route's outcome before the caller
// hears of it. msgType must already have a typed route.
func (x *Mux) Wrap(msgType string, around func(ctx context.Context, c *ServerConn, m *Message, next func(context.Context) (any, error)) (any, error)) {
	inner := x.routes[msgType].call
	if inner == nil {
		panic("wire: Wrap of " + msgType + ", which has no typed route")
	}
	x.handle(msgType, route{call: func(ctx context.Context, c *ServerConn, m *Message) (any, error) {
		return around(ctx, c, m, func(ctx context.Context) (any, error) { return inner(ctx, c, m) })
	}})
}

// ServeWire implements Handler.
func (x *Mux) ServeWire(c *ServerConn, m *Message) {
	r, ok := x.routes[m.Type]
	if !ok {
		if x.Fallback != nil {
			x.Fallback.ServeWire(c, m)
			return
		}
		r.call = unknownType
	}
	ctx, cancel := BudgetContext(context.Background(), m)
	defer cancel()
	if x.Join != nil && m.Trace != nil {
		ctx = x.Join(ctx, m)
	}
	if x.Admit != nil {
		release, err := x.Admit(ctx, m.Type)
		if err != nil {
			_ = c.ReplyError(m, err)
			return
		}
		defer release()
	}
	if r.raw != nil {
		r.raw(c, m)
		return
	}
	resp, err := r.call(ctx, c, m)
	if err != nil {
		_ = c.ReplyError(m, err)
		return
	}
	_ = c.Reply(m, resp)
}

func unknownType(_ context.Context, _ *ServerConn, m *Message) (any, error) {
	return nil, fmt.Errorf("wire: unknown message type %q", m.Type)
}
