package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Message{Type: "fetch", ID: 42, Payload: Marshal(map[string]string{"k": "v"})}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if out.Type != "fetch" || out.ID != 42 {
		t.Errorf("envelope = %+v", out)
	}
	var payload map[string]string
	if err := Unmarshal(out.Payload, &payload); err != nil || payload["k"] != "v" {
		t.Errorf("payload = %v, %v", payload, err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v", err)
	}
	big := &Message{Type: "x", Payload: Marshal(strings.Repeat("a", MaxFrame))}
	if err := WriteFrame(&bytes.Buffer{}, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("write err = %v", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, &Message{Type: "x", ID: 1})
	data := buf.Bytes()
	if _, err := ReadFrame(bytes.NewReader(data[:len(data)-2])); err == nil {
		t.Error("truncated frame accepted")
	}
	if _, err := ReadFrame(bytes.NewReader(data[:2])); err == nil {
		t.Error("truncated header accepted")
	}
}

// A body is refused by its first byte: '{' is a peer built before the
// binary frame, anything else that is not this build's version is named as
// such.
func TestFrameVersionRefusals(t *testing.T) {
	if _, err := ReadFrame(bytes.NewReader(rawFrame([]byte(`{"type":"resolve","id":7}`)...))); !errors.Is(err, ErrLegacyFrame) {
		t.Errorf("JSON body: err = %v, want ErrLegacyFrame", err)
	}
	for _, version := range []byte{1, 2, 3, 5} {
		if _, err := ReadFrame(bytes.NewReader(rawFrame(version, 7, 0, 0, 0, 0, 0))); !errors.Is(err, ErrFrameVersion) {
			t.Errorf("version %d: err = %v, want ErrFrameVersion", version, err)
		}
	}
	if _, err := ReadFrame(bytes.NewReader(rawFrame())); err == nil {
		t.Error("empty body accepted")
	}
}

func TestUnmarshalEmpty(t *testing.T) {
	var v map[string]string
	if err := Unmarshal(Payload{}, &v); err == nil {
		t.Error("empty payload accepted")
	}
}

// echoHandler replies with the request payload; "boom" triggers an error
// reply; "slow" delays; "push" sends a notification before replying.
type echoHandler struct{}

func (echoHandler) ServeWire(c *ServerConn, m *Message) {
	switch m.Type {
	case "boom":
		c.ReplyError(m, errors.New("kaboom"))
	case "slow":
		time.Sleep(50 * time.Millisecond)
		c.Reply(m, Empty{})
	case "push":
		c.Notify("event", map[string]string{"hello": "world"})
		c.Reply(m, Empty{})
	case "panic":
		panic("handler exploded")
	default:
		c.Reply(m, m.Payload)
	}
}

func TestClientServerRoundTrip(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", echoHandler{})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cli.Close()

	var resp map[string]int
	if err := cli.Call(context.Background(), "echo", map[string]int{"n": 7}, &resp); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if resp["n"] != 7 {
		t.Errorf("resp = %v", resp)
	}
}

func TestRemoteError(t *testing.T) {
	srv, _ := Serve("127.0.0.1:0", echoHandler{})
	defer srv.Close()
	cli, _ := Dial(srv.Addr())
	defer cli.Close()

	err := cli.Call(context.Background(), "boom", Empty{}, nil)
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "kaboom" {
		t.Errorf("err = %v", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	srv, _ := Serve("127.0.0.1:0", echoHandler{})
	defer srv.Close()
	cli, _ := Dial(srv.Addr())
	defer cli.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp map[string]int
			if err := cli.Call(context.Background(), "echo", map[string]int{"i": i}, &resp); err != nil {
				errs <- err
				return
			}
			if resp["i"] != i {
				errs <- fmt.Errorf("cross-talk: sent %d got %d", i, resp["i"])
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestContextCancellation(t *testing.T) {
	srv, _ := Serve("127.0.0.1:0", echoHandler{})
	defer srv.Close()
	cli, _ := Dial(srv.Addr())
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := cli.Call(ctx, "slow", Empty{}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v", err)
	}
}

func TestNotification(t *testing.T) {
	srv, _ := Serve("127.0.0.1:0", echoHandler{})
	defer srv.Close()
	cli, _ := Dial(srv.Addr())
	defer cli.Close()

	got := make(chan string, 1)
	cli.OnNotify(func(msgType string, payload Payload) {
		var hello map[string]string
		if err := Unmarshal(payload, &hello); err != nil || hello["hello"] != "world" {
			t.Errorf("notification payload %v, %v", hello, err)
		}
		got <- msgType
	})
	if err := cli.Call(context.Background(), "push", Empty{}, nil); err != nil {
		t.Fatalf("Call: %v", err)
	}
	select {
	case mt := <-got:
		if mt != "event" {
			t.Errorf("notify type = %q", mt)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("notification never arrived")
	}
}

func TestHandlerPanicIsolated(t *testing.T) {
	srv, _ := Serve("127.0.0.1:0", echoHandler{})
	defer srv.Close()
	cli, _ := Dial(srv.Addr())
	defer cli.Close()

	err := cli.Call(context.Background(), "panic", Empty{}, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Errorf("panic call err = %v", err)
	}
	// The connection must still work.
	var resp map[string]int
	if err := cli.Call(context.Background(), "echo", map[string]int{"n": 1}, &resp); err != nil {
		t.Errorf("connection dead after panic: %v", err)
	}
}

func TestCallAfterServerClose(t *testing.T) {
	srv, _ := Serve("127.0.0.1:0", echoHandler{})
	cli, _ := Dial(srv.Addr())
	defer cli.Close()
	srv.Close()

	// The in-flight connection is closed; subsequent calls fail quickly.
	deadline := time.After(3 * time.Second)
	for {
		err := cli.Call(context.Background(), "echo", Empty{}, nil)
		if err != nil {
			return // expected
		}
		select {
		case <-deadline:
			t.Fatal("calls keep succeeding after server close")
		default:
		}
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, _ := Serve("127.0.0.1:0", echoHandler{})
	if err := srv.Close(); err != nil {
		t.Errorf("first close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestOnCloseRuns(t *testing.T) {
	ran := make(chan bool, 1)
	h := HandlerFunc(func(c *ServerConn, m *Message) {
		c.OnClose(func() { ran <- true })
		c.Reply(m, Empty{})
	})
	srv, _ := Serve("127.0.0.1:0", h)
	defer srv.Close()
	cli, _ := Dial(srv.Addr())
	cli.Call(context.Background(), "x", Empty{}, nil)
	cli.Close()
	select {
	case <-ran:
	case <-time.After(2 * time.Second):
		t.Fatal("OnClose never ran")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("Dial to closed port succeeded")
	}
}

// A caller whose context has already ended is told so at once, in the
// context's own words, whatever the address would have done.
func TestDialContextExpired(t *testing.T) {
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	cancelled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	for _, ctx := range []context.Context{expired, cancelled} {
		t0 := time.Now()
		c, err := DialContext(ctx, "127.0.0.1:1")
		if err == nil {
			c.Close()
			t.Fatal("dial under a dead context succeeded")
		}
		if !errors.Is(err, ctx.Err()) {
			t.Errorf("err = %v, want it to wrap %v", err, ctx.Err())
		}
		if took := time.Since(t0); took > time.Second {
			t.Errorf("dial under a dead context took %s", took)
		}
	}
}
