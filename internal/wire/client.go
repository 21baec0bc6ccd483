package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gupster/internal/trace"
)

// Client is a connection to a wire server. It multiplexes concurrent calls
// over one TCP connection and delivers server-pushed notifications to an
// optional callback. Safe for concurrent use.
type Client struct {
	conn   net.Conn
	nextID atomic.Uint64

	writeMu sync.Mutex

	mu       sync.Mutex
	pending  map[uint64]chan *Message
	closed   bool
	closeErr error
	// dead is closed's lock-free mirror for Alive, set as soon as the
	// connection is known lost — a failed write marks it before the read
	// loop has noticed.
	dead atomic.Bool
	// read counts the bytes the read loop has taken off the connection, so
	// a call whose deadline passed can tell a silent peer from a slow one.
	read atomic.Uint64

	notifyMu     sync.RWMutex
	onNotify     func(msgType string, payload Payload)
	onDisconnect func(err error)
}

// Dial connects to a wire server.
func Dial(addr string) (*Client, error) {
	return DialContext(context.Background(), addr)
}

// DialContext is Dial bounded by ctx as well as by the 5 s dial timeout,
// whichever ends first: a caller with 100 ms left does not spend 5 s on a
// blackholed address. The error wraps ctx's when ctx ended the dial.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	d := net.Dialer{Timeout: 5 * time.Second}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		// A context deadline that fires mid-connect surfaces from the
		// poller as a bare "i/o timeout", possibly a moment before ctx.Err
		// reports it; name it so callers can tell their own budget from
		// the address's fault.
		if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) && !errors.Is(err, context.DeadlineExceeded) {
			err = context.DeadlineExceeded
		}
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	return newClient(conn), nil
}

func newClient(conn net.Conn) *Client {
	c := &Client{conn: conn, pending: make(map[uint64]chan *Message)}
	go c.readLoop()
	return c
}

// OnNotify registers the callback for server-pushed messages; the callback
// decodes the payload with Unmarshal. It must be set before notifications
// can arrive (typically right after Dial). The callback runs on the read
// loop; it must not block.
func (c *Client) OnNotify(fn func(msgType string, payload Payload)) {
	c.notifyMu.Lock()
	c.onNotify = fn
	c.notifyMu.Unlock()
}

// OnDisconnect registers a callback invoked once, when the connection's
// read loop exits (peer died, network cut, or local Close). Subscription
// holders use it to re-home push subscriptions that would otherwise die
// silently with the connection. The callback runs on the read loop's
// goroutine after all pending calls have been failed.
func (c *Client) OnDisconnect(fn func(err error)) {
	c.notifyMu.Lock()
	c.onDisconnect = fn
	c.notifyMu.Unlock()
}

// RemoteError is a failure reported by the server.
type RemoteError struct {
	Op  string
	Msg string
}

func (e *RemoteError) Error() string { return fmt.Sprintf("wire: remote %s: %s", e.Op, e.Msg) }

// typedError is a reply that is more than a failure text: a refusal the
// caller is expected to act on. Each one is defined once — the error struct
// is its own payload (its exported fields are the wire format), frame supplies
// the reply type and the Error text that says the same in words, and
// typedReplies maps the reply type back to the struct. ReplyError writes
// any of them, Call reads any of them; nothing else knows the set.
type typedError interface {
	error
	frame() (replyType, errorText string)
}

// typedReplies builds the empty typed error for a reply type; Op is the
// request the caller made.
var typedReplies = map[string]func(op string) typedError{
	TypeOverloaded: func(op string) typedError { return &OverloadedError{Op: op} },
	TypeNotLeader:  func(op string) typedError { return &NotLeaderError{Op: op} },
	TypeWrongShard: func(op string) typedError { return &WrongShardError{Op: op} },
}

// OverloadedError is the server shedding the request under admission
// control (TypeOverloaded reply: queue full, queue wait exceeded, or the
// request's propagated budget already below the observed service time). It
// is not a failure of the operation — the server is explicitly asking the
// caller to back off RetryAfter and try again; the resilience layer honors
// the hint instead of counting a breaker failure.
type OverloadedError struct {
	Op string `json:"-"`
	// RetryAfter hints when the server expects to have capacity.
	RetryAfter time.Duration
	// Reason says why the request was refused ("admission queue full",
	// "queue wait exceeded", "budget expired on arrival", …).
	Reason string
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("wire: %s overloaded: %s (retry after %s)", e.Op, e.Reason, e.RetryAfter)
}

func (e *OverloadedError) frame() (string, string) { return TypeOverloaded, "overloaded: " + e.Reason }

// NotLeaderError is a replicated MDM refusing a mutation because it is
// not the constellation's leader (TypeNotLeader reply). Like overload it
// is a redirect, not a failure: the caller should re-home to LeaderAddr
// (or probe other members when it is empty) and retry; the resilience
// layer does not count it against the endpoint's breaker.
type NotLeaderError struct {
	Op string `json:"-"`
	// LeaderAddr is the current leader's dialable address; empty when the
	// node does not know one (mid-election), in which case the caller
	// should retry another constellation member after a short backoff.
	LeaderAddr string `json:"leader_addr,omitempty"`
	// LeaderID names the leader node; Term is the replying node's current
	// election term (diagnostics and staleness checks).
	LeaderID string `json:"leader_id,omitempty"`
	Term     uint64 `json:"term,omitempty"`
}

func (e *NotLeaderError) Error() string {
	if e.LeaderAddr == "" {
		return fmt.Sprintf("wire: %s: not leader (no leader known, term %d)", e.Op, e.Term)
	}
	return fmt.Sprintf("wire: %s: not leader (leader at %s, term %d)", e.Op, e.LeaderAddr, e.Term)
}

func (e *NotLeaderError) frame() (string, string) {
	if e.LeaderAddr == "" {
		return TypeNotLeader, "not leader (no leader known)"
	}
	return TypeNotLeader, "not leader (leader at " + e.LeaderAddr + ")"
}

// WrongShardError is a sharded directory node refusing an owner-scoped
// request because the owner's keyspace slice belongs to another shard
// (TypeWrongShard reply). Like not-leader it is a redirect, not a
// failure: the caller should re-issue the request against Addr (or route
// by Map when present) and must not count it against any breaker.
type WrongShardError struct {
	Op string `json:"-"`
	// Owner is the profile owner whose keyspace slice lives elsewhere.
	Owner string `json:"owner,omitempty"`
	// ShardID/Addr/Members locate the owning shard. Addr may be empty when
	// the replying node has no routable map entry, in which case the
	// caller should retry another directory address.
	ShardID string   `json:"shard_id,omitempty"`
	Addr    string   `json:"addr,omitempty"`
	Members []string `json:"members,omitempty"`
	// Map is the replier's full shard map when it chose to share it;
	// callers cache it and route subsequent requests client-side.
	Map *ShardMap `json:"map,omitempty"`
}

func (e *WrongShardError) Error() string {
	if e.Addr == "" {
		return fmt.Sprintf("wire: %s: wrong shard for owner %q (no routable shard known)", e.Op, e.Owner)
	}
	return fmt.Sprintf("wire: %s: wrong shard for owner %q (shard %s at %s)", e.Op, e.Owner, e.ShardID, e.Addr)
}

func (e *WrongShardError) frame() (string, string) {
	if e.Addr == "" {
		return TypeWrongShard, "wrong shard for owner " + e.Owner + " (no routable shard known)"
	}
	return TypeWrongShard, "wrong shard for owner " + e.Owner + " (shard " + e.ShardID + " at " + e.Addr + ")"
}

// Call sends a request and decodes the response payload into resp (which
// may be nil to discard it). It respects ctx cancellation and deadlines.
func (c *Client) Call(ctx context.Context, msgType string, req any, resp any) error {
	id := c.nextID.Add(1)
	ch := make(chan *Message, 1)
	deadline, hasDeadline := ctx.Deadline()

	c.mu.Lock()
	if c.closed {
		err := c.closeErr
		c.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return err
	}
	c.pending[id] = ch
	c.mu.Unlock()

	readAtStart := c.read.Load()
	m := &Message{Type: msgType, ID: id}
	if req != nil {
		m.Payload = Marshal(req)
	}
	// Stamp the caller's span context onto the frame so the receiver's
	// spans join the trace; its response piggybacks them back for rec.
	ti, rec := trace.Outbound(ctx)
	if ti != nil {
		m.Trace = ti
	}
	// Stamp the remaining deadline budget so every hop downstream knows how
	// long the answer still matters. Stamping happens at send time, so a
	// hop that spent time queueing or working propagates only what is left.
	// A budget already gone means the frame is not worth the wire: fail
	// fast instead of shipping doomed work.
	if hasDeadline {
		rem := time.Until(deadline)
		if rem <= 0 {
			c.forget(id)
			if err := ctx.Err(); err != nil {
				return err
			}
			return context.DeadlineExceeded
		}
		if m.BudgetMillis = rem.Milliseconds(); m.BudgetMillis < 1 {
			m.BudgetMillis = 1
		}
	}
	c.writeMu.Lock()
	// A hung or slow peer must not block the writer forever: once the
	// peer stops draining, the kernel buffer fills and Write blocks while
	// holding writeMu, wedging every caller. Bound the frame write by the
	// request context's deadline (zero time clears the deadline).
	c.conn.SetWriteDeadline(deadline)
	err := WriteFrame(c.conn, m)
	c.writeMu.Unlock()
	if err != nil {
		c.forget(id)
		// A failed write may have left a partial frame on the stream; the
		// connection's framing is unrecoverable.
		c.Close()
		return err
	}

	select {
	case <-ctx.Done():
		// The liveness rule: the caller waited out its whole deadline, the
		// peer produced not one byte in that time — for this call or any
		// other — and nobody else is still waiting on it. TCP may be up, but
		// nobody is home: the connection is declared dead so its owner (a
		// Pool) dials afresh instead of letting every later caller pay its
		// own timeout. Cancellation says nothing about the peer, a peer that
		// is answering other calls is merely slow, and while other calls are
		// still inside their own deadlines the verdict is theirs — closing
		// under them would fail calls that may yet be answered.
		if last := c.forget(id); last && errors.Is(ctx.Err(), context.DeadlineExceeded) && c.read.Load() == readAtStart {
			c.Close()
		}
		return ctx.Err()
	case reply, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.closeErr
			c.mu.Unlock()
			if err == nil {
				err = ErrClosed
			}
			return err
		}
		if rec != nil && len(reply.Spans) > 0 {
			rec.Ingest(reply.Spans)
		}
		// A typed reply outranks its own Error text.
		if mk := typedReplies[reply.Type]; mk != nil {
			typed := mk(msgType)
			_ = Unmarshal(reply.Payload, typed) // a bare refusal is still the refusal
			return typed
		}
		if reply.Error != "" {
			return &RemoteError{Op: msgType, Msg: reply.Error}
		}
		if resp != nil {
			return Unmarshal(reply.Payload, resp)
		}
		return nil
	}
}

// Send writes a one-way frame (ID 0) and returns without waiting for any
// response; the server treats it as a notification-style message. Used for
// fire-and-forget traffic such as trace reports.
func (c *Client) Send(ctx context.Context, msgType string, req any) error {
	c.mu.Lock()
	if c.closed {
		err := c.closeErr
		c.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return err
	}
	c.mu.Unlock()

	m := &Message{Type: msgType}
	if req != nil {
		m.Payload = Marshal(req)
	}
	deadline, _ := ctx.Deadline()
	// One-way frames carry the budget too: a receiver under pressure drops
	// expired fire-and-forget work without replying.
	if !deadline.IsZero() {
		if rem := time.Until(deadline); rem > 0 {
			if m.BudgetMillis = rem.Milliseconds(); m.BudgetMillis < 1 {
				m.BudgetMillis = 1
			}
		}
	}
	c.writeMu.Lock()
	c.conn.SetWriteDeadline(deadline)
	err := WriteFrame(c.conn, m)
	c.writeMu.Unlock()
	if err != nil {
		// As in Call: a partial frame makes the stream unrecoverable.
		c.Close()
	}
	return err
}

// forget abandons call id and reports whether it was the last one pending.
func (c *Client) forget(id uint64) (last bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.pending, id)
	return len(c.pending) == 0
}

// Close tears down the connection; outstanding calls fail with ErrClosed.
func (c *Client) Close() error {
	c.dead.Store(true)
	return c.conn.Close()
}

// Alive reports whether the connection can still carry a call. It turns
// false for good when the connection itself is lost: a read error, a
// failed write, a lone call that waited out its deadline while nothing at
// all was read, or Close. A call that merely returned an error — a typed
// reply, cancellation, a deadline passing while the peer is answering
// other calls — leaves it true.
func (c *Client) Alive() bool { return !c.dead.Load() }

// countingReader adds every byte read to n.
type countingReader struct {
	r io.Reader
	n *atomic.Uint64
}

func (cr countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n.Add(uint64(n))
	return n, err
}

func (c *Client) readLoop() {
	// One buffered reader for the connection's life: a frame that arrived
	// whole is one read, not one for its length and one for its body. The
	// byte counter sits under the buffer, where it sees what the peer sent.
	r := bufio.NewReader(countingReader{c.conn, &c.read})
	var err error
	for {
		var m *Message
		m, err = ReadFrame(r)
		if err != nil {
			break
		}
		if m.ID == 0 {
			c.notifyMu.RLock()
			fn := c.onNotify
			c.notifyMu.RUnlock()
			if fn != nil {
				fn(m.Type, m.Payload)
			}
			continue
		}
		c.mu.Lock()
		ch, ok := c.pending[m.ID]
		if ok {
			delete(c.pending, m.ID)
		}
		c.mu.Unlock()
		if ok {
			ch <- m
		}
	}
	if err == io.EOF {
		err = ErrClosed
	}
	c.dead.Store(true)
	c.mu.Lock()
	c.closed = true
	c.closeErr = err
	for id, ch := range c.pending {
		close(ch)
		delete(c.pending, id)
	}
	c.mu.Unlock()
	c.conn.Close()
	c.notifyMu.RLock()
	fn := c.onDisconnect
	c.notifyMu.RUnlock()
	if fn != nil {
		fn(err)
	}
}
