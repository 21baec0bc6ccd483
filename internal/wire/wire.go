// Package wire implements the GUPster transport: length-prefixed binary
// frames over TCP, each a short header, the operation's payload in a
// positional binary codec, and — beside the payload, never inside it — the
// profile component the operation carries, as its own bytes (DESIGN.md
// §19). The paper leaves the concrete protocol open ("the protocol will
// probably be SOAP or HTTP", §4.2 footnote 5); any request/response
// transport with server push is compliant. This one is small,
// allocation-conscious, and supports the three interaction styles the
// framework needs: request/response (resolve, fetch, update), server push
// (subscription notifications, §5.2), and streaming sync sessions.
//
// A frame is version 4: the version byte, then id, budget, type, error,
// the ext section (trace context and spans) and the payload, then the
// bulk. The payload codec (codec.go) writes a struct's exported fields in
// declaration order with no names, so a payload struct's field order is
// the protocol: reordering, inserting, removing or retyping a field of any
// type that travels needs a new frame version byte.
package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"sync"
	"time"
	"unsafe"

	"gupster/internal/trace"
)

// MaxFrame bounds a single message. Profile components are small; anything
// larger than this indicates a protocol error or abuse.
const MaxFrame = 16 << 20

// Message is the envelope every frame carries.
type Message struct {
	// Type names the operation ("resolve", "fetch", …) or notification.
	Type string
	// ID correlates responses with requests. Server-initiated messages
	// (notifications) carry ID 0.
	ID uint64
	// Error carries a failure description on responses; empty on success.
	Error string
	// Payload is the operation-specific body.
	Payload Payload
	// Trace, when present on a request, carries the caller's span context:
	// the receiver's spans join the caller's trace at Trace.Hop, parented on
	// Trace.SpanID. Absent on untraced traffic.
	Trace *trace.Info
	// Spans, when present on a response, piggybacks the spans the receiver
	// (and its own downstream hops) recorded while serving the request, so
	// the caller ends up holding the whole tree.
	Spans []trace.Span
	// BudgetMillis, when positive on a request, is the deadline budget the
	// caller grants: how many milliseconds of work remain before the answer
	// stops mattering. It is relative (like gRPC's grpc-timeout header), so
	// no clock synchronization is needed; each hop restamps the remaining
	// budget when it calls downstream, decrementing it by its own elapsed
	// time. Zero means untimed; a negative value travels as zero.
	BudgetMillis int64

	// spanDrain, when set by the serving layer, supplies the spans to attach
	// to the reply frame. Unexported: never serialized, never copied across
	// the wire.
	spanDrain func() []trace.Span
	// replyBy, set by the server's read loop, is when the frame's budget
	// (else ForwardTimeout) runs out: the bound on writing its reply.
	replyBy time.Time
}

// SetSpanDrain registers the function Reply/ReplyError call to collect the
// request's recorded spans onto the response frame.
func (m *Message) SetSpanDrain(fn func() []trace.Span) { m.spanDrain = fn }

// BudgetContext threads a request's propagated deadline budget into the
// serving context: a positive BudgetMillis yields a context that expires
// when the caller's budget does, so every piece of work done on the
// request's behalf — store fetches, chained resolves, queue waits — is
// bounded by what the caller still cares about. Requests without a budget
// get the parent context unchanged. The cancel function is never nil.
func BudgetContext(parent context.Context, m *Message) (context.Context, context.CancelFunc) {
	if m == nil || m.BudgetMillis <= 0 {
		return parent, func() {}
	}
	return context.WithTimeout(parent, time.Duration(m.BudgetMillis)*time.Millisecond)
}

// ForwardTimeout bounds work a node does on another node's behalf — a
// relayed frame, the write of a reply — when the inbound frame carries no
// budget of its own.
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
	// ErrLegacyFrame refuses a peer built before the binary frame: its
	// frames were JSON objects, so their first byte is '{'.
	ErrLegacyFrame = errors.New("wire: legacy JSON frame (peer predates frame version 1)")
	// ErrFrameVersion refuses a frame whose version byte this build does
	// not speak.
	ErrFrameVersion = errors.New("wire: unknown frame version")
)

// frameVersion is the first byte of every frame body. It can never be '{'.
// Version 1 carried the payload and ext as JSON; version 2 carries them in
// the payload codec (codec.go); version 3 added the leader's commit index
// to the replication append; version 4 dropped the drain window from the
// shard install.
const frameVersion = 0x04

// Payload is a frame's operation-specific body in wire form: the payload
// value's positional bytes (codec.go), and beside them the value's bulk
// field — the one string a payload struct tags wire:"bulk", a profile
// component's XML — which travels as its own bytes at the end of the frame.
// Payload is opaque: Marshal makes one, ReadFrame yields one, Unmarshal
// decodes one, and a Payload that is itself the value passes through
// Marshal and Unmarshal untouched, which is how a relay forwards what it
// did not look at.
type Payload struct {
	fields []byte
	bulk   string
	// v, set by Marshal instead of fields and bulk, is the value itself:
	// WriteFrame encodes it straight into the frame, with c its codec.
	v any
	c *payloadCodec
}

// Marshal makes a payload of v, panicking only when v's type cannot be
// encoded (programming error). The encoding happens when the frame is
// written, so v must not change until then; Call, Send, Reply and
// ReplyError write before they return.
func Marshal(v any) Payload {
	if p, ok := v.(Payload); ok {
		return p
	}
	if v == nil {
		return Payload{}
	}
	c, err := payloadCodecFor(payloadType(reflect.TypeOf(v)))
	if err != nil {
		panic(fmt.Sprintf("wire: marshal payload: %v", err))
	}
	return Payload{v: v, c: c}
}

// payloadType is the type a value of type t travels as: a pointer
// travels as what it points to.
func payloadType(t reflect.Type) reflect.Type {
	if t.Kind() == reflect.Pointer {
		return t.Elem()
	}
	return t
}

// appendTo appends the payload's positional bytes, length-prefixed, and
// returns its bulk.
func (p *Payload) appendTo(b []byte) ([]byte, string) {
	if p.c == nil {
		return appendField(b, p.fields), p.bulk
	}
	v := reflect.ValueOf(p.v)
	if v.Kind() == reflect.Pointer {
		if v.IsNil() {
			v = reflect.Zero(v.Type().Elem())
		} else {
			v = v.Elem()
		}
	}
	at := len(b)
	b = patchLength(p.c.enc(append(b, 0), v), at)
	if p.c.bulk < 0 {
		return b, ""
	}
	return b, v.Field(p.c.bulk).String()
}

// framed is p as a frame carries it: a value Marshal holds is encoded.
func (p Payload) framed() Payload {
	if p.c == nil {
		return p
	}
	b, bulk := p.appendTo(nil)
	_, n := binary.Uvarint(b)
	return Payload{fields: b[n:], bulk: bulk}
}

// Unmarshal decodes a payload into v, a non-nil pointer.
func Unmarshal(p Payload, v any) error {
	if out, ok := v.(*Payload); ok {
		*out = p
		return nil
	}
	p = p.framed()
	if len(p.fields) == 0 {
		return errors.New("wire: empty payload")
	}
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("wire: unmarshal into %T, not a non-nil pointer", v)
	}
	rv = rv.Elem()
	c, err := payloadCodecFor(rv.Type())
	if err != nil {
		return err
	}
	if err := decodeValue(c.codec, p.fields, rv); err != nil {
		return err
	}
	if p.bulk == "" {
		return nil
	}
	if c.bulk < 0 {
		return fmt.Errorf("wire: payload carries %d bulk bytes and %T has no bulk field", len(p.bulk), v)
	}
	rv.Field(c.bulk).SetString(p.bulk)
	return nil
}

// ext is the frame's optional-fields section, in the payload codec. It is
// empty on untraced traffic.
type ext struct {
	Trace *trace.Info
	Spans []trace.Span
}

var extCodec = func() *codec {
	c, err := payloadCodecFor(reflect.TypeFor[ext]())
	if err != nil {
		panic(err)
	}
	return c.codec
}()

// frameBufs recycles the buffers frames are assembled in. Buffers that grew
// past maxPooledFrame are dropped instead of pinned.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledFrame = 64 << 10

// WriteFrame writes one message to w in a single Write:
//
//	len:u32be | version:u8 | id:uvarint | budget_ms:uvarint |
//	type | error | ext | payload  (each uvarint length, then bytes) |
//	bulk (the rest of the frame)
//
// ext and the payload are encoded straight into the pooled frame buffer.
func WriteFrame(w io.Writer, m *Message) error {
	bp := frameBufs.Get().(*[]byte)
	b := append((*bp)[:0], 0, 0, 0, 0, frameVersion)
	b = binary.AppendUvarint(b, m.ID)
	b = binary.AppendUvarint(b, uint64(max(m.BudgetMillis, 0)))
	b = appendField(b, m.Type)
	b = appendField(b, m.Error)
	if m.Trace != nil || len(m.Spans) > 0 {
		at := len(b)
		b = patchLength(extCodec.enc(append(b, 0), reflect.ValueOf(&ext{m.Trace, m.Spans}).Elem()), at)
	} else {
		b = append(b, 0)
	}
	b, bulk := m.Payload.appendTo(b)
	b = append(b, bulk...)
	var err error
	if n := len(b) - 4; n > MaxFrame {
		err = ErrFrameTooLarge
	} else {
		binary.BigEndian.PutUint32(b, uint32(n))
		_, err = w.Write(b)
	}
	if cap(b) <= maxPooledFrame {
		*bp = b
		frameBufs.Put(bp)
	}
	return err
}

// patchLength turns the one byte reserved at b[at] into the uvarint length
// of what follows it, moving that up when the length needs more bytes.
func patchLength(b []byte, at int) []byte {
	n := len(b) - at - 1
	if n < 0x80 {
		b[at] = byte(n)
		return b
	}
	var l [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(l[:], uint64(n))
	b = append(b, l[:k-1]...)
	copy(b[at+k:], b[at+1:at+1+n])
	copy(b[at:], l[:k])
	return b
}

func appendField[S ~string | ~[]byte](b []byte, field S) []byte {
	b = binary.AppendUvarint(b, uint64(len(field)))
	return append(b, field...)
}

// firstBodyChunk caps what ReadFrame allocates on the strength of a length
// prefix alone; the rest of a larger body is allocated as its bytes arrive.
const firstBodyChunk = 64 << 10

// ReadFrame reads one message from r. The message's Payload aliases the
// body the frame was read into, its bulk as a string: a body is allocated
// for its one frame and never pooled or reused, so those bytes never change.
func ReadFrame(r io.Reader) (*Message, error) {
	n, err := readLength(r)
	if err != nil {
		return nil, err
	}
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	body := make([]byte, min(n, firstBodyChunk))
	for read := 0; ; {
		got, err := io.ReadFull(r, body[read:])
		if read += got; err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the header promised a body
			}
			return nil, err
		}
		if read == n {
			break
		}
		grown := make([]byte, min(n, 2*read))
		copy(grown, body)
		body = grown
	}
	return decodeFrame(body)
}

// readLength reads a frame's length prefix: io.EOF before its first byte,
// io.ErrUnexpectedEOF inside it. A reader that yields single bytes — the
// connection's bufio.Reader, a bytes.Reader — is read that way, because a
// four-byte buffer handed to an io.Reader is a heap allocation per frame.
func readLength(r io.Reader) (int, error) {
	br, ok := r.(io.ByteReader)
	if !ok {
		var hdr [4]byte
		_, err := io.ReadFull(r, hdr[:])
		return int(binary.BigEndian.Uint32(hdr[:])), err
	}
	var n uint32
	for i := 0; i < 4; i++ {
		b, err := br.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		n = n<<8 | uint32(b)
	}
	return int(n), nil
}

// decodeFrame decodes a frame body into a Message that keeps it: the
// payload's positional bytes and its bulk are body's own bytes, not
// copies, so body must be this frame's alone and never written again.
// Strings decoded from either are copies (codec.go); only the bulk
// aliases the body.
func decodeFrame(body []byte) (*Message, error) {
	if len(body) == 0 {
		return nil, errors.New("wire: malformed frame: empty body")
	}
	switch body[0] {
	case frameVersion:
	case '{':
		return nil, ErrLegacyFrame
	default:
		return nil, fmt.Errorf("%w 0x%02x", ErrFrameVersion, body[0])
	}
	d := frameDecoder{rest: body[1:]}
	m := &Message{ID: d.uvarint()}
	if budget := d.uvarint(); budget <= math.MaxInt64 {
		m.BudgetMillis = int64(budget)
	} else {
		d.bad = true
	}
	m.Type = string(d.field())
	m.Error = string(d.field())
	extBytes := d.field()
	m.Payload.fields = d.field()
	if d.bad {
		return nil, errors.New("wire: malformed frame: header runs past the frame")
	}
	m.Payload.bulk = unsafe.String(unsafe.SliceData(d.rest), len(d.rest))
	if len(extBytes) > 0 {
		var x ext
		if err := decodeValue(extCodec, extBytes, reflect.ValueOf(&x).Elem()); err != nil {
			return nil, fmt.Errorf("wire: malformed frame: ext: %w", err)
		}
		m.Trace, m.Spans = x.Trace, x.Spans
	}
	return m, nil
}

// frameDecoder consumes a frame header field by field. A varint that does
// not parse, or a length that claims more than what is left of the frame,
// sets bad and yields zero values from then on; it never reads past rest.
type frameDecoder struct {
	rest []byte
	bad  bool
}

func (d *frameDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.rest)
	if n <= 0 {
		d.bad, d.rest = true, nil
		return 0
	}
	d.rest = d.rest[n:]
	return v
}

func (d *frameDecoder) field() []byte {
	n := d.uvarint()
	if n > uint64(len(d.rest)) {
		d.bad, d.rest = true, nil
		return nil
	}
	f := d.rest[:n:n]
	d.rest = d.rest[n:]
	return f
}
