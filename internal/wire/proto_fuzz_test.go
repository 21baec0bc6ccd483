package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"

	"gupster/internal/trace"
)

// frameBytes is the frame WriteFrame produces for m.
func frameBytes(t testing.TB, m *Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, m); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	return buf.Bytes()
}

// rawFrame length-prefixes a hand-built body.
func rawFrame(body ...byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// sameMessage reports whether two messages carry the same frame: every
// field byte for byte, a nil and an empty payload part alike.
func sameMessage(a, b *Message) bool {
	return a.Type == b.Type && a.ID == b.ID && a.Error == b.Error && a.BudgetMillis == b.BudgetMillis &&
		bytes.Equal(a.Payload.json, b.Payload.json) && a.Payload.bulk == b.Payload.bulk &&
		reflect.DeepEqual(a.Trace, b.Trace) && reflect.DeepEqual(a.Spans, b.Spans)
}

// FuzzFrameRoundTrip checks that every message a node can emit survives
// encode → decode unchanged. The frame carries every field as bytes, so
// "unchanged" is exact: invalid UTF-8 in a type, an error text or a bulk
// field comes back as it went in, and the payload JSON is not re-encoded.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add("resolve", uint64(1), "", `{"path":"/user[@id='u']/presence"}`, "", int64(0), false)
	f.Add("fetch", uint64(1<<40), "", `{"query":{"store":"s","path":"/user"}}`, "", int64(250), true)
	f.Add("notify", uint64(0), "", `{"sub_id":7,"xml":"<presence/>"}`, "", int64(0), false)
	f.Add("resolve", uint64(2), "gupster: access denied", "", "", int64(-5), false)
	f.Add("", uint64(0), "", "", "", int64(0), false)
	f.Add("stats", uint64(3), "", `{"nested":{"deep":[1,2,3,null,true]}}`, "", int64(1<<62), true)
	f.Add("x", uint64(9), "unicode ✗ éλ", `"bare string payload"`, "", int64(1), false)
	f.Add("resolve", uint64(7), "", `{"cached":true}`, `<presence status="available">&amp;</presence>`, int64(0), false)
	f.Add("fetch", uint64(8), "", `{"xml":"","version":3}`, "\xff\xfe not utf-8 \x00", int64(40), true)
	f.Add("exec", uint64(9), "", "", "a bulk with no JSON beside it", int64(0), false)

	f.Fuzz(func(t *testing.T, msgType string, id uint64, errStr, payload, bulk string, budget int64, traced bool) {
		m := &Message{Type: msgType, ID: id, Error: errStr, BudgetMillis: budget, Payload: Payload{json: []byte(payload), bulk: bulk}}
		if traced {
			m.Trace = &trace.Info{TraceID: "t", SpanID: id, Hop: 1}
			m.Spans = []trace.Span{{TraceID: "t", SpanID: id, Name: "n", Start: budget}}
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame of a written frame: %v", err)
		}
		want := *m
		want.BudgetMillis = max(budget, 0) // a negative budget means untimed, and travels as such
		if !sameMessage(&want, got) {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", &want, got)
		}
		if buf.Len() != 0 {
			t.Fatalf("%d trailing bytes after one frame", buf.Len())
		}
	})
}

// FuzzReadFrame feeds arbitrary bytes to the frame decoder: it must
// never panic or read past the frame, must reject oversized length
// prefixes, legacy JSON bodies and unknown versions by name, and anything
// it accepts must re-encode.
func FuzzReadFrame(f *testing.F) {
	f.Add(frameBytes(f, &Message{Type: "resolve", ID: 1, Payload: Payload{json: []byte(`{"path":"/user"}`)}}))
	f.Add(frameBytes(f, &Message{Type: "notify", Payload: Payload{json: []byte(`{"sub_id":1}`)}}))
	f.Add(frameBytes(f, &Message{Type: "resolve", ID: 2, Payload: Marshal(ResolveResponse{Data: "<a>bulk</a>", Cached: true})}))
	f.Add(frameBytes(f, &Message{Type: "fetch", ID: 3, BudgetMillis: 9, Trace: &trace.Info{TraceID: "t", SpanID: 1}}))
	f.Add([]byte{})                                                                               // immediate EOF
	f.Add([]byte{0, 0, 0, 1})                                                                     // truncated body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})                                                         // length prefix 4 GiB
	f.Add(rawFrame())                                                                             // empty body
	f.Add(rawFrame('{', '}'))                                                                     // a legacy JSON envelope
	f.Add(rawFrame('x', 'y', 'z'))                                                                // unknown version
	f.Add(rawFrame(1))                                                                            // version and nothing else
	f.Add(rawFrame(1, 7, 0, 1, 'x', 0, 0, 0))                                                     // the smallest whole frame
	f.Add(rawFrame(1, 7, 0, 200, 'x', 0, 0, 0))                                                   // type length lies: longer than the frame
	f.Add(rawFrame(1, 7, 0, 1, 'x', 0, 0, 9, '{'))                                                // payload length lies: 9 > the 1 byte left
	f.Add(rawFrame(1, 7, 0, 1, 'x', 0, 2, '{', 0, 0))                                             // ext is not JSON
	f.Add(rawFrame(1, 0x80))                                                                      // id varint cut short
	f.Add(rawFrame(1, 7, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0, 0, 0, 0)) // budget > MaxInt64
	f.Add(rawFrame(1, 7, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)) // payload length 2^64-1

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		m, err := ReadFrame(r)
		if err != nil {
			if len(data) >= 5 {
				switch n := binary.BigEndian.Uint32(data); {
				case n > MaxFrame && err != ErrFrameTooLarge:
					t.Fatalf("oversize frame (%d) rejected with %v, want ErrFrameTooLarge", n, err)
				case n > 0 && n <= MaxFrame && int(n) <= len(data)-4 && data[4] == '{' && err != ErrLegacyFrame:
					t.Fatalf("legacy JSON body rejected with %v, want ErrLegacyFrame", err)
				}
			}
			return
		}
		if n := int(binary.BigEndian.Uint32(data)); r.Len() != len(data)-4-n {
			t.Fatalf("frame of %d bytes consumed %d", 4+n, len(data)-r.Len())
		}
		// Accepted frames must be re-encodable and decode back to the same
		// message.
		m2, rerr := ReadFrame(bytes.NewReader(frameBytes(t, m)))
		if rerr != nil {
			t.Fatalf("re-decode: %v", rerr)
		}
		if !sameMessage(m, m2) {
			t.Fatalf("re-decode mismatch:\n in: %+v\nout: %+v", m, m2)
		}
	})
}

// FuzzReadFrameTruncated checks that every prefix of a valid frame fails
// cleanly (EOF-style errors) rather than yielding a bogus message.
func FuzzReadFrameTruncated(f *testing.F) {
	f.Add("resolve", `{"path":"/user[@id='u']/location"}`, "", 5)
	f.Add("update", `{"query":{}}`, "<devices/>", 1)
	f.Add("changed", `{"store":"s"}`, "", 0)
	f.Add("resolve", `{}`, "<book>a bulk longer than the header that precedes it</book>", 30)
	f.Fuzz(func(t *testing.T, msgType, payload, bulk string, cut int) {
		frame := frameBytes(t, &Message{Type: msgType, ID: 1, Payload: Payload{json: []byte(payload), bulk: bulk}})
		if cut < 0 {
			cut = -cut
		}
		if cut < 0 { // math.MinInt
			cut = 0
		}
		cut %= len(frame) // strictly shorter than the full frame
		_, err := ReadFrame(bytes.NewReader(frame[:cut]))
		if err == nil {
			t.Fatalf("truncated frame (%d of %d bytes) decoded successfully", cut, len(frame))
		}
		if err == io.EOF && cut != 0 {
			// A bare EOF is only correct at a frame boundary (cut == 0);
			// anywhere inside the frame it is io.ErrUnexpectedEOF.
			t.Fatalf("truncation at %d of %d returned bare EOF", cut, len(frame))
		}
	})
}
