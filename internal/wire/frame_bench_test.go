package wire

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"gupster/internal/policy"
	"gupster/internal/racetag"
	"gupster/internal/token"
)

// bookXML is an address book of about n bytes, shaped like the components
// the benchmark's workloads carry.
func bookXML(n int) string {
	var b strings.Builder
	b.WriteString(`<user id="u00000"><address-book>`)
	for i := 0; b.Len() < n; i++ {
		fmt.Fprintf(&b, `<item id="%d" type="personal"><name>Name %d &amp; Co</name><phone kind="cell">+1-555-01%02d</phone><note>synthetic entry %d for size sweeps</note></item>`, i, i, i%100, i)
	}
	b.WriteString(`</address-book></user>`)
	return b.String()
}

// The two frames every per-layer number is quoted for: a resolve request
// (small) and a chained reply carrying an 8 KiB component (large).
var (
	benchSmall = &ResolveRequest{
		Path:    "/user[@id='u00000']/address-book",
		Context: policy.Context{Requester: "friend-0", Role: "friend", Purpose: policy.Purpose("query")},
		Verb:    token.VerbFetch,
	}
	benchXML   = bookXML(8 << 10)
	benchLarge = &ResolveResponse{Data: benchXML}
)

var benchSink any

func writeFrameOnce(payload any) {
	_ = WriteFrame(io.Discard, &Message{Type: TypeResolve, ID: 7, Payload: Marshal(payload)})
}

func readFrameOnce(frame []byte, into any) error {
	m, err := ReadFrame(bytes.NewReader(frame))
	if err != nil {
		return err
	}
	return Unmarshal(m.Payload, into)
}

func benchWrite(b *testing.B, payload any) {
	b.ReportAllocs()
	for b.Loop() {
		writeFrameOnce(payload)
	}
}

func benchRead(b *testing.B, payload any, into func() any) {
	frame := frameBytes(b, &Message{Type: TypeResolve, ID: 7, Payload: Marshal(payload)})
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	for b.Loop() {
		if err := readFrameOnce(frame, into()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameWriteSmall(b *testing.B) { benchWrite(b, benchSmall) }
func BenchmarkFrameWriteLarge(b *testing.B) { benchWrite(b, benchLarge) }
func BenchmarkFrameReadSmall(b *testing.B) {
	benchRead(b, benchSmall, func() any { return new(ResolveRequest) })
}
func BenchmarkFrameReadLarge(b *testing.B) {
	benchRead(b, benchLarge, func() any { return new(ResolveResponse) })
}

// echoClient is a client of a server that answers every frame with reply.
func echoClient(tb testing.TB, reply any) *Client {
	tb.Helper()
	srv, err := Serve("127.0.0.1:0", HandlerFunc(func(c *ServerConn, m *Message) {
		var req ResolveRequest
		if err := Unmarshal(m.Payload, &req); err != nil {
			_ = c.ReplyError(m, err)
			return
		}
		_ = c.Reply(m, reply)
	}))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	cli, err := Dial(srv.Addr())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cli.Close() })
	return cli
}

// BenchmarkRoundtrip is one Client.Call over loopback: a small request, a
// small reply. BenchmarkRoundtripLarge answers with the 8 KiB component.
func BenchmarkRoundtrip(b *testing.B) {
	cli := echoClient(b, benchSmall)
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		var back ResolveRequest
		if err := cli.Call(ctx, TypeResolve, benchSmall, &back); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoundtripLarge(b *testing.B) {
	cli := echoClient(b, benchLarge)
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		var back ResolveResponse
		if err := cli.Call(ctx, TypeResolve, benchSmall, &back); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFrameAllocs is the wire instalment of the allocs/op gate ROADMAP asks
// for (xmltree.TestParseAllocs was the first). The ceilings are the
// issue's: what a frame allocates must not creep back towards the JSON
// envelope's 24 (read small) and 18 allocations and 6 × the component's
// size (read large).
func TestFrameAllocs(t *testing.T) {
	if racetag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	small := frameBytes(t, &Message{Type: TypeResolve, ID: 7, Payload: Marshal(benchSmall)})
	large := frameBytes(t, &Message{Type: TypeResolve, ID: 7, Payload: Marshal(benchLarge)})
	cli := echoClient(t, benchSmall)
	ctx := context.Background()
	for _, c := range []struct {
		name    string
		ceiling float64
		fn      func()
	}{
		{"write small", 4, func() { writeFrameOnce(benchSmall) }},
		{"read small", 16, func() { benchSink = readFrameOnce(small, new(ResolveRequest)) }},
		{"write large", 4, func() { writeFrameOnce(benchLarge) }},
		{"read large", 10, func() { benchSink = readFrameOnce(large, new(ResolveResponse)) }},
		{"Client.Call round trip", 52, func() {
			var back ResolveRequest
			if err := cli.Call(ctx, TypeResolve, benchSmall, &back); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		got := testing.AllocsPerRun(200, c.fn)
		t.Logf("%s: %.0f allocs", c.name, got)
		if got > c.ceiling {
			t.Errorf("%s: %.0f allocs, ceiling %.0f", c.name, got, c.ceiling)
		}
	}

	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		benchSink = readFrameOnce(large, new(ResolveResponse))
	}
	runtime.ReadMemStats(&after)
	perRead := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("read large: %.0f bytes allocated for a %d-byte component", perRead, len(benchXML))
	if ceiling := 2.5 * float64(len(benchXML)); perRead > ceiling {
		t.Errorf("read large: %.0f bytes allocated, ceiling %.0f (2.5 × the component)", perRead, ceiling)
	}
}
