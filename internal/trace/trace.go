// Package trace implements request-scoped distributed tracing for the
// resolve fabric. Every client request mints a trace ID and a hop-numbered
// span context that rides the wire frame header (see wire.Message.Trace),
// is propagated in-process via context.Context, and is recorded by a
// lock-cheap bounded Collector in every participating process (client,
// MDM, data store).
//
// The paper's MDM is a Napster-style broker whose every resolve may hop
// client → MDM → store → sibling store (§5.2 referral/chaining/recruiting);
// aggregate counters cannot say which hop burned a latency budget. Spans
// can: each hop's work is one Span, children link to parents across
// process boundaries, and completed spans piggyback on response frames so
// the caller ends up holding the whole tree. Clients additionally report
// their finished root spans to the MDM (fire-and-forget), making the MDM
// the constellation's trace directory — `gupctl trace <id>` renders the
// tree from there.
package trace

import (
	"crypto/rand"
	"encoding/hex"
	"sync/atomic"
	"time"
)

// Info is the wire form of a span context: it travels in the frame header
// and tells the receiver which trace it is serving, which remote span is
// its parent, and its hop number (distance from the originating client).
// Old frames simply omit it — tracing is fully backward-compatible.
type Info struct {
	TraceID string `json:"trace_id"`
	SpanID  uint64 `json:"span_id"`
	Hop     int    `json:"hop"`
}

// Span is one recorded unit of work. Spans are immutable once emitted and
// safe to copy; they serialize to JSON both on the wire (response
// piggyback, trace reports) and in tooling output.
type Span struct {
	TraceID string `json:"trace_id"`
	SpanID  uint64 `json:"span_id"`
	// Parent is the span this one nests under — possibly a span recorded
	// by another process (the wire header carries the linkage).
	Parent uint64 `json:"parent,omitempty"`
	// Hop counts process boundaries from the originating client: 0 at the
	// client, 1 at the MDM (or at a store reached directly via referral),
	// 2 at a store reached through the MDM, and so on.
	Hop int `json:"hop"`
	// Site names the process role that recorded the span: "client",
	// "mdm", "store".
	Site string `json:"site,omitempty"`
	// Name identifies the operation, e.g. "client.get", "mdm.resolve",
	// "store.fetch". Per-hop latency percentiles aggregate by Name.
	Name string `json:"name"`
	// Entry marks the first span a process recorded for the request — the
	// span whose duration is that process's whole share of the request.
	// Slow-query detection triggers on entry spans.
	Entry bool  `json:"entry,omitempty"`
	Start int64 `json:"start_unix_nano"`
	// DurMicros is the span's wall-clock duration in microseconds.
	DurMicros int64  `json:"dur_us"`
	Err       string `json:"err,omitempty"`
	// Notes carries annotations such as "cache-hit", "coalesced", or
	// "store=gup.telecom".
	Notes []string `json:"notes,omitempty"`
}

// Duration returns the span's duration.
func (s *Span) Duration() time.Duration { return time.Duration(s.DurMicros) * time.Microsecond }

// Recorder receives completed spans. Collector records them for the whole
// process; RequestRecorder additionally buffers them for the response
// frame of the request being served.
type Recorder interface {
	// Emit records one locally produced span.
	Emit(Span)
	// Ingest folds spans reported by a downstream hop (piggybacked on its
	// response) into this recorder.
	Ingest([]Span)
}

// spanIDs hands out process-unique span IDs: a random base plus a counter,
// so IDs are unique within a process and collide across processes only
// with negligible probability.
var spanIDs atomic.Uint64

func init() {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		var v uint64
		for _, x := range b {
			v = v<<8 | uint64(x)
		}
		spanIDs.Store(v)
	}
}

func nextSpanID() uint64 {
	id := spanIDs.Add(1)
	if id == 0 { // 0 means "no parent"; skip it
		id = spanIDs.Add(1)
	}
	return id
}

// NewTraceID mints a random 64-bit trace ID in hex.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to the span-ID counter; uniqueness within the process
		// is all the fallback can promise.
		var c [8]byte
		v := spanIDs.Add(1)
		for i := 7; i >= 0; i-- {
			c[i] = byte(v)
			v >>= 8
		}
		return hex.EncodeToString(c[:])
	}
	return hex.EncodeToString(b[:])
}

// Active is a started, not-yet-finished span. All methods are nil-safe so
// untraced requests cost a single pointer comparison per call site.
type Active struct {
	rec   Recorder
	s     Span
	start time.Time
	done  atomic.Bool
}

// TraceID returns the trace the span belongs to ("" on a no-op span).
func (a *Active) TraceID() string {
	if a == nil {
		return ""
	}
	return a.s.TraceID
}

// Annotate appends a note to the span (e.g. "cache-hit"). Call before
// Finish, from the goroutine driving the request.
func (a *Active) Annotate(note string) {
	if a == nil || a.done.Load() {
		return
	}
	a.s.Notes = append(a.s.Notes, note)
}

// Finish completes the span, stamping its duration and error, and emits it
// to the recorder. Subsequent Finish calls are no-ops.
func (a *Active) Finish(err error) {
	if a == nil || a.done.Swap(true) {
		return
	}
	a.s.DurMicros = time.Since(a.start).Microseconds()
	if err != nil {
		a.s.Err = err.Error()
	}
	if a.rec != nil {
		a.rec.Emit(a.s)
	}
}
