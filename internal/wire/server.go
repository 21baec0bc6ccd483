package wire

import (
	"bufio"
	"errors"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ServerConn is one accepted connection. Handlers reply through it and may
// push unsolicited notifications at any time; writes are serialized
// internally, and every write is bounded: a reply by what is left of its
// request's budget (ForwardTimeout for a request without one) and never by
// less than readGrace, a notification by ForwardTimeout. A peer that stops
// reading therefore costs a handler that long and no longer, and a write
// that fails or times out closes the connection — a partial frame has made
// its framing unrecoverable.
type ServerConn struct {
	conn    net.Conn
	mu      sync.Mutex // guards writes
	closed  atomic.Bool
	onClose []func()
}

// Reply sends a success response to m with the given payload. When a span
// drain is registered on m (see Message.SetSpanDrain), the spans recorded
// while serving the request ride back on the response frame. A one-way
// frame (ID 0) has nobody waiting for an answer — the peer's read loop
// would deliver one as a notification — so nothing is sent for it.
func (c *ServerConn) Reply(m *Message, payload any) error {
	return c.reply(m, &Message{Type: m.Type, Payload: Marshal(payload)})
}

// ReplyError sends a failure response to m. Spans ride along as on Reply —
// failed requests are the ones worth tracing. When err is, or wraps, a
// typed error (OverloadedError, NotLeaderError, WrongShardError) the reply
// is that error's own frame: its reply type, its fields as the payload,
// and an Error text that says the same in words, so it surfaces from the
// caller's Call as the same typed error however many hops relay it.
func (c *ServerConn) ReplyError(m *Message, err error) error {
	out := &Message{Type: m.Type, Error: err.Error()}
	var typed typedError
	if errors.As(err, &typed) {
		out.Type, out.Error = typed.frame()
		out.Payload = Marshal(typed)
	}
	return c.reply(m, out)
}

func (c *ServerConn) reply(m, out *Message) error {
	if m.ID == 0 {
		return nil
	}
	out.ID = m.ID
	if m.spanDrain != nil {
		out.Spans = m.spanDrain()
	}
	// The write is bounded by what is left of the request's budget. A reply
	// that is ready just as the budget ends, or after it, still gets
	// readGrace: a deadline already past would fail the write at once, and a
	// failed write costs every other call on the connection its connection.
	by := m.replyBy
	if floor := time.Now().Add(readGrace); by.Before(floor) {
		by = floor
	}
	return c.send(out, by)
}

// Notify pushes a server-initiated message (ID 0). The payload travels as
// plain JSON whatever its type, so the subscriber's OnNotify callback is
// handed all of it.
func (c *ServerConn) Notify(msgType string, payload any) error {
	return c.send(&Message{Type: msgType, Payload: Payload{json: marshalJSON(payload)}}, time.Now().Add(ForwardTimeout))
}

func (c *ServerConn) send(m *Message, by time.Time) error {
	if c.closed.Load() {
		return ErrClosed
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_ = c.conn.SetWriteDeadline(by) // fails only on a closed connection, and then so does the write
	err := WriteFrame(c.conn, m)
	if err != nil && !errors.Is(err, ErrFrameTooLarge) { // an oversized frame wrote nothing
		c.closed.Store(true)
		c.conn.Close()
	}
	return err
}

// RemoteAddr reports the peer address.
func (c *ServerConn) RemoteAddr() string { return c.conn.RemoteAddr().String() }

// OnClose registers a function to run when the connection ends; used by the
// MDM to tear down subscriptions.
func (c *ServerConn) OnClose(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onClose = append(c.onClose, fn)
}

// Handler processes one inbound message. Implementations must send exactly
// one reply per request message (via Reply or ReplyError) and may push
// notifications. Handlers run sequentially per connection and concurrently
// across connections.
type Handler interface {
	ServeWire(c *ServerConn, m *Message)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(c *ServerConn, m *Message)

// ServeWire implements Handler.
func (f HandlerFunc) ServeWire(c *ServerConn, m *Message) { f(c, m) }

// Server accepts connections and dispatches frames to a handler.
type Server struct {
	ln      net.Listener
	handler Handler
	wg      sync.WaitGroup
	closed  atomic.Bool
	quit    chan struct{}

	connMu sync.Mutex
	conns  map[net.Conn]bool

	// Logf, when set, receives connection-level errors; defaults to
	// discarding them (they are routine at shutdown).
	Logf func(format string, args ...any)
}

// Serve starts a server on addr ("127.0.0.1:0" picks a free port).
func Serve(addr string, h Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return ServeListener(ln, h), nil
}

// ServeListener runs a server on an existing listener. Tests use it to
// inject listeners that fail Accept in controlled ways.
func ServeListener(ln net.Listener, h Handler) *Server {
	s := &Server{ln: ln, handler: h, conns: make(map[net.Conn]bool), quit: make(chan struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listen address, e.g. for clients to dial.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes the listener and every active connection,
// and waits for connection goroutines to drain.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	close(s.quit) // wakes an accept loop sleeping out a backoff
	err := s.ln.Close()
	s.connMu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.closed.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient accept failures — EMFILE under fd exhaustion,
			// ECONNABORTED races — must not kill the listener for good:
			// back off (capped, reset on success) and keep accepting. A
			// Close during the sleep returns promptly via the quit channel.
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			s.logf("wire: accept: %v (retrying in %s)", err, backoff)
			select {
			case <-s.quit:
				return
			case <-time.After(backoff):
			}
			continue
		}
		backoff = 0
		s.connMu.Lock()
		if s.closed.Load() {
			s.connMu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.connMu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	sc := &ServerConn{conn: conn}
	defer func() {
		sc.closed.Store(true)
		conn.Close()
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		sc.mu.Lock()
		fns := sc.onClose
		sc.mu.Unlock()
		for _, fn := range fns {
			fn()
		}
	}()
	// One buffered reader for the connection's life: a frame that arrived
	// whole is one read, not one for its length and one for its body.
	r := bufio.NewReader(conn)
	for {
		m, err := ReadFrame(r)
		if err != nil {
			// A peer hanging up between frames is routine; one that hangs
			// up inside a frame (io.ErrUnexpectedEOF) or sends what cannot
			// be decoded is worth the line.
			if !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.EOF) {
				s.logf("wire: read from %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		budget := ForwardTimeout
		if m.BudgetMillis > 0 {
			budget = time.Duration(m.BudgetMillis) * time.Millisecond
		}
		m.replyBy = time.Now().Add(budget)
		func() {
			defer func() {
				if r := recover(); r != nil {
					log.Printf("wire: handler panic: %v", r)
					_ = sc.ReplyError(m, errors.New("internal error"))
				}
			}()
			s.handler.ServeWire(sc, m)
		}()
	}
}
