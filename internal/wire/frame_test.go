package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"log/slog"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"gupster/internal/eventlog"
)

// headerThenEOF yields a length prefix and nothing after it.
func headerThenEOF(n uint32) io.Reader {
	return bytes.NewReader(binary.BigEndian.AppendUint32(nil, n))
}

// Four bytes from a peer used to cost the reader make([]byte, 16 MiB),
// zeroed, before one body byte had arrived. The body buffer now grows with
// the bytes that arrive.
func TestReadFrameDoesNotTrustTheLengthPrefix(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(headerThenEOF(MaxFrame))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("a %d-byte length prefix with no body behind it cost %d bytes", MaxFrame, got)
	}
	// A reader that is not an io.ByteReader takes the other header path.
	if _, err := ReadFrame(io.MultiReader(headerThenEOF(MaxFrame))); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("plain io.Reader: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// A body larger than the first chunk is read in one pass and arrives whole,
// from a reader that yields it in one piece and from one that trickles.
func TestReadFrameGrowsWithTheBody(t *testing.T) {
	for _, size := range []int{firstBodyChunk - 1, firstBodyChunk, firstBodyChunk + 1, 3*firstBodyChunk + 17, 2 << 20} {
		want := &Message{Type: TypeResolve, ID: 9, Payload: Marshal(ResolveResponse{Data: strings.Repeat("x", size), Hops: 3})}
		frame := frameBytes(t, want)
		for name, r := range map[string]io.Reader{"whole": bytes.NewReader(frame), "trickled": iotest.HalfReader(bytes.NewReader(frame))} {
			got, err := ReadFrame(r)
			if err != nil || !sameMessage(want, got) {
				t.Errorf("%d-byte bulk, %s: err %v, same %v", size, name, err, err == nil && sameMessage(want, got))
			}
		}
	}
}

// The large-frame overhead fence: a component travels as its own bytes, so
// the frame around an 8 KiB one is a header, not a second copy of it or a
// six-bytes-per-angle-bracket escape of it.
func TestLargeFrameOverhead(t *testing.T) {
	frame := frameBytes(t, &Message{Type: TypeResolve, ID: 7, Payload: Marshal(ResolveResponse{Data: benchXML})})
	if over := len(frame) - len(benchXML); over > 128 {
		t.Errorf("frame is %d bytes for a %d-byte component: %d of overhead, fence 128", len(frame), len(benchXML), over)
	}
	if n := bytes.Count(frame, []byte(benchXML)); n != 1 {
		t.Errorf("the component appears %d times in its frame, want once, verbatim", n)
	}
}

// A peer built before the binary frame, or before the payload codec, is
// refused by name — and by a live server promptly, with no effect on its
// other connections.
func TestLegacyFramesAreRefused(t *testing.T) {
	for _, lf := range legacyFrames {
		frame, err := hex.DecodeString(lf.hex)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFrame(bytes.NewReader(frame)); !errors.Is(err, lf.err) {
			t.Errorf("legacy frame %s…: err = %v, want %v", lf.hex[:24], err, lf.err)
		}
	}

	events := eventlog.Install(slog.LevelDebug)
	defer events.Remove()
	srv, err := Serve("127.0.0.1:0", echoHandler{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	good, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()

	old, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	frame, _ := hex.DecodeString(legacyFrames[0].hex)
	if _, err := old.Write(frame); err != nil {
		t.Fatal(err)
	}
	_ = old.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := old.Read(make([]byte, 1)); n != 0 || !errors.Is(err, io.EOF) {
		t.Errorf("the legacy peer's connection: read %d bytes, %v; want it closed", n, err)
	}
	if ev, ok := events.Await(0, time.Now().Add(2*time.Second), eventlog.Is("connection read failed")); !ok {
		t.Error("the refusal was not logged")
	} else if got := ev.Attrs["err"].String(); got != ErrLegacyFrame.Error() {
		t.Errorf("server logged %q, want the legacy refusal", got)
	}
	var resp map[string]int
	if err := good.Call(context.Background(), "echo", map[string]int{"n": 1}, &resp); err != nil || resp["n"] != 1 {
		t.Errorf("another connection after the refusal: %v, %v", resp, err)
	}
}

// countingConn counts the Writes a connection takes and the Reads that
// returned data.
type countingConn struct {
	net.Conn
	writes, reads atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

// frameCountingListener hands the server counting connections.
type frameCountingListener struct {
	net.Listener
	accepted chan *countingConn
}

func (l frameCountingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: conn}
	l.accepted <- cc
	return cc, nil
}

// One Write per frame, from the client's Call and Send and from the
// server's Reply and Notify, whatever the frame's size; and a small frame
// that arrived whole is one Read at either end, not one for its length and
// one for its body.
func TestOneWriteAndOneReadPerFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := frameCountingListener{ln, make(chan *countingConn, 1)}
	srv := ServeListener(cl, HandlerFunc(func(c *ServerConn, m *Message) {
		switch m.Type {
		case "push":
			_ = c.Notify("event", Notification{SubID: 1, XML: benchXML})
			_ = c.Reply(m, Empty{})
		case "large":
			_ = c.Reply(m, benchLarge)
		default:
			_ = c.Reply(m, m.Payload)
		}
	}))
	defer srv.Close()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cconn := &countingConn{Conn: raw}
	cli := newClient(cconn)
	defer cli.Close()
	sconn := <-cl.accepted
	notified := make(chan Notification, 1)
	cli.OnNotify(func(_ string, payload Payload) {
		var n Notification
		if err := Unmarshal(payload, &n); err != nil {
			t.Errorf("notification payload: %v", err)
		}
		notified <- n
	})

	ctx := context.Background()
	const calls = 20
	for i := 0; i < calls; i++ {
		var back ResolveRequest
		if err := cli.Call(ctx, TypeResolve, benchSmall, &back); err != nil {
			t.Fatal(err)
		}
	}
	if w, r := cconn.writes.Load(), sconn.reads.Load(); w != calls || r != calls {
		t.Errorf("%d small requests: %d client Writes, %d server Reads; want %d and %d", calls, w, r, calls, calls)
	}
	if w, r := sconn.writes.Load(), cconn.reads.Load(); w != calls || r != calls {
		t.Errorf("%d small replies: %d server Writes, %d client Reads; want %d and %d", calls, w, r, calls, calls)
	}

	var large ResolveResponse
	if err := cli.Call(ctx, "large", Empty{}, &large); err != nil || large.Data != benchXML {
		t.Fatalf("large reply: %d bytes, %v", len(large.Data), err)
	}
	if err := cli.Call(ctx, "push", Empty{}, nil); err != nil {
		t.Fatal(err)
	}
	if n := <-notified; n.XML != benchXML {
		t.Errorf("the notification's XML is %d bytes, want all %d of it", len(n.XML), len(benchXML))
	}
	if err := cli.Send(ctx, "one-way", Empty{}); err != nil {
		t.Fatal(err)
	}
	// A large reply, a notification and its call's reply: three frames.
	// Two calls and a one-way frame: three more from the client.
	if w := sconn.writes.Load(); w != calls+3 {
		t.Errorf("server Writes = %d, want %d: one per frame", w, calls+3)
	}
	if w := cconn.writes.Load(); w != calls+3 {
		t.Errorf("client Writes = %d, want %d: one per frame", w, calls+3)
	}
}
