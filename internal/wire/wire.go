// Package wire implements the GUPster transport: length-prefixed JSON
// envelopes over TCP. The paper leaves the concrete protocol open ("the
// protocol will probably be SOAP or HTTP", §4.2 footnote 5); any
// request/response transport with server push is compliant. This one is
// small, allocation-conscious, and supports the three interaction styles
// the framework needs: request/response (resolve, fetch, update), server
// push (subscription notifications, §5.2), and streaming sync sessions.
package wire

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"gupster/internal/trace"
)

// MaxFrame bounds a single message. Profile components are small; anything
// larger than this indicates a protocol error or abuse.
const MaxFrame = 16 << 20

// Message is the envelope every frame carries.
type Message struct {
	// Type names the operation ("resolve", "fetch", …) or notification.
	Type string `json:"type"`
	// ID correlates responses with requests. Server-initiated messages
	// (notifications) carry ID 0.
	ID uint64 `json:"id,omitempty"`
	// Error carries a failure description on responses; empty on success.
	Error string `json:"error,omitempty"`
	// Payload is the operation-specific body.
	Payload json.RawMessage `json:"payload,omitempty"`
	// Trace, when present on a request, carries the caller's span context:
	// the receiver's spans join the caller's trace at Trace.Hop, parented on
	// Trace.SpanID. Absent on untraced traffic — old peers interoperate.
	Trace *trace.Info `json:"trace,omitempty"`
	// Spans, when present on a response, piggybacks the spans the receiver
	// (and its own downstream hops) recorded while serving the request, so
	// the caller ends up holding the whole tree.
	Spans []trace.Span `json:"spans,omitempty"`
	// BudgetMillis, when positive on a request, is the deadline budget the
	// caller grants: how many milliseconds of work remain before the answer
	// stops mattering. It is relative (like gRPC's grpc-timeout header), so
	// no clock synchronization is needed; each hop restamps the remaining
	// budget when it calls downstream, decrementing it by its own elapsed
	// time. Zero/absent means untimed — old peers that never stamp the
	// field interoperate, and old peers receiving it ignore the unknown
	// JSON key.
	BudgetMillis int64 `json:"budget_ms,omitempty"`

	// spanDrain, when set by the serving layer, supplies the spans to attach
	// to the reply frame. Unexported: never serialized, never copied across
	// the wire.
	spanDrain func() []trace.Span
}

// SetSpanDrain registers the function Reply/ReplyError call to collect the
// request's recorded spans onto the response frame.
func (m *Message) SetSpanDrain(fn func() []trace.Span) { m.spanDrain = fn }

// BudgetContext threads a request's propagated deadline budget into the
// serving context: a positive BudgetMillis yields a context that expires
// when the caller's budget does, so every piece of work done on the
// request's behalf — store fetches, chained resolves, queue waits — is
// bounded by what the caller still cares about. Requests without a budget
// (old clients) get the parent context unchanged. The cancel function is
// never nil.
func BudgetContext(parent context.Context, m *Message) (context.Context, context.CancelFunc) {
	if m == nil || m.BudgetMillis <= 0 {
		return parent, func() {}
	}
	return context.WithTimeout(parent, time.Duration(m.BudgetMillis)*time.Millisecond)
}

// ForwardTimeout bounds work a node does on another node's behalf — a
// relayed frame, a mirrored mutation — when the inbound frame carries no
// budget of its own (an old client).
const ForwardTimeout = 5 * time.Second

// ForwardContext is BudgetContext for a hop that calls onward and must not
// wait forever: the frame's budget bounds it, else ForwardTimeout does. m
// may be nil when parent already carries the frame's budget.
func ForwardContext(parent context.Context, m *Message) (context.Context, context.CancelFunc) {
	ctx, cancel := BudgetContext(parent, m)
	if _, bounded := ctx.Deadline(); bounded {
		return ctx, cancel
	}
	return context.WithTimeout(ctx, ForwardTimeout)
}

// Framing errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	ErrClosed        = errors.New("wire: connection closed")
)

// WriteFrame writes one message to w: 4-byte big-endian length, then JSON.
func WriteFrame(w io.Writer, m *Message) error {
	body, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("wire: marshal: %w", err)
	}
	if len(body) > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// ReadFrame reads one message from r.
func ReadFrame(r io.Reader) (*Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	var m Message
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("wire: unmarshal: %w", err)
	}
	return &m, nil
}

// Marshal encodes a payload struct into a raw message, panicking only on
// unmarshalable Go values (programming error).
func Marshal(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("wire: marshal payload: %v", err))
	}
	return b
}

// Unmarshal decodes a payload into v.
func Unmarshal(raw json.RawMessage, v any) error {
	if len(raw) == 0 {
		return errors.New("wire: empty payload")
	}
	return json.Unmarshal(raw, v)
}
