package store

import (
	"context"

	"gupster/internal/syncml"
	"gupster/internal/token"
	"gupster/internal/wire"
	"gupster/internal/xmltree"
)

// Client talks to a store Server over one connection: its own when it
// came from DialClient, a pooled one inside an Executor. Safe for
// concurrent use.
type Client struct {
	c *wire.Client
}

// DialClient connects to a store server.
func DialClient(addr string) (*Client, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &Client{c: c}, nil
}

// Close tears down the connection.
func (c Client) Close() error { return c.c.Close() }

func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// Fetch retrieves the component granted by q. A nil document with nil error
// means the store holds nothing under the granted path.
func (c Client) Fetch(ctx context.Context, q token.SignedQuery) (*xmltree.Node, uint64, error) {
	resp, err := c.fetch(ctx, q)
	if err != nil || resp.XML == "" {
		return nil, resp.Version, err
	}
	doc, err := xmltree.ParseString(resp.XML)
	if err != nil {
		return nil, 0, err
	}
	return doc, resp.Version, nil
}

// fetch is Fetch's reply as the store sent it: the component's XML, ""
// when the store holds nothing under the granted path.
func (c Client) fetch(ctx context.Context, q token.SignedQuery) (wire.FetchResponse, error) {
	var resp wire.FetchResponse
	err := c.c.Call(orBackground(ctx), wire.TypeFetch, wire.FetchRequest{Query: q}, &resp)
	return resp, err
}

// Update writes a component under the grant q.
func (c Client) Update(ctx context.Context, q token.SignedQuery, frag *xmltree.Node) (uint64, error) {
	var resp wire.UpdateResponse
	err := c.c.Call(orBackground(ctx), wire.TypeUpdate, wire.UpdateRequest{Query: q, XML: frag.String()}, &resp)
	return resp.Version, err
}

// Exec migrates a merged fetch to the store (recruiting pattern) and
// returns the merged component's XML as the store sent it, "" for nothing.
func (c Client) Exec(ctx context.Context, primary wire.FetchRequest, siblings []wire.Referral) (string, error) {
	var resp wire.ExecResponse
	err := c.c.Call(orBackground(ctx), wire.TypeExec, wire.ExecRequest{Primary: primary, Siblings: siblings}, &resp)
	return resp.XML, err
}

// SyncTransport adapts the connection into a syncml.Transport for the
// component granted by q (which must carry an update grant).
func (c Client) SyncTransport(q token.SignedQuery) syncml.Transport {
	return &syncTransport{c: c.c, q: q}
}

type syncTransport struct {
	c *wire.Client
	q token.SignedQuery
}

func (t *syncTransport) SyncStart(ctx context.Context, lastAnchor uint64) (*wire.SyncStartResponse, error) {
	var resp wire.SyncStartResponse
	err := t.c.Call(orBackground(ctx), wire.TypeSyncStart,
		wire.SyncStartRequest{Query: t.q, LastAnchor: lastAnchor}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

func (t *syncTransport) SyncDelta(ctx context.Context, req *wire.SyncDeltaRequest) (*wire.SyncDeltaResponse, error) {
	req.Query = t.q
	var resp wire.SyncDeltaResponse
	if err := t.c.Call(orBackground(ctx), wire.TypeSyncDelta, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
