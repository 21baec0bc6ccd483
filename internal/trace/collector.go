package trace

import (
	"sync"
	"time"

	"gupster/internal/metrics"
)

// Defaults for the collector bounds. All state is hard-bounded: tracing
// must be safe to leave on under heavy traffic from millions of users.
const (
	// DefaultSpanCap bounds the total spans retained across all traces.
	DefaultSpanCap = 4096
	// DefaultSlowCap bounds the slow-trace log.
	DefaultSlowCap = 32
	// DefaultSlowThreshold flags entry spans slower than this into the
	// slow-trace log.
	DefaultSlowThreshold = 250 * time.Millisecond
	// maxSpansPerTrace bounds one trace's retained spans (a runaway batch
	// must not evict every other trace).
	maxSpansPerTrace = 512
	// hopReservoir bounds each per-hop latency histogram.
	hopReservoir = 4096
)

// SlowTrace is one slow-query log record: the whole span set of a trace
// whose entry span exceeded the collector's threshold, copied out so ring
// eviction cannot dismember it.
type SlowTrace struct {
	TraceID string `json:"trace_id"`
	// At is when the slow entry span finished (unix nanoseconds).
	At int64 `json:"at_unix_nano"`
	// RootMicros is the offending entry span's duration.
	RootMicros int64  `json:"root_us"`
	Spans      []Span `json:"spans"`
}

// traceBuf holds one trace's retained spans plus a seen-set for dedup
// (spans can arrive twice: once recorded locally, once inside a client's
// trace report that echoes the piggybacked tree back).
type traceBuf struct {
	spans []Span
	seen  map[uint64]bool
}

// Collector is a process-wide, bounded, lock-cheap span store: a ring of
// recent traces (FIFO eviction, whole traces at a time), a bounded
// slow-trace log, and per-hop latency histograms with reservoir sampling.
// Safe for concurrent use; the cost per span is one short critical
// section, so tracing stays on in production.
type Collector struct {
	site string

	mu      sync.Mutex
	cap     int
	traces  map[string]*traceBuf
	order   []string // trace IDs, oldest first
	total   int
	dropped uint64

	slowThreshold time.Duration
	slowCap       int
	slow          []SlowTrace

	hops map[string]*metrics.Histogram
}

// NewCollector builds a collector for a process role ("client", "mdm",
// "store"). capSpans <= 0 means DefaultSpanCap; slow == 0 means
// DefaultSlowThreshold, slow < 0 disables the slow log.
func NewCollector(site string, capSpans int, slow time.Duration) *Collector {
	if capSpans <= 0 {
		capSpans = DefaultSpanCap
	}
	if slow == 0 {
		slow = DefaultSlowThreshold
	}
	return &Collector{
		site:          site,
		cap:           capSpans,
		traces:        make(map[string]*traceBuf),
		slowThreshold: slow,
		slowCap:       DefaultSlowCap,
		hops:          make(map[string]*metrics.Histogram),
	}
}

// Site returns the process role the collector records for.
func (c *Collector) Site() string { return c.site }

// SetSlowThreshold adjusts the slow-trace threshold (<= 0 disables).
func (c *Collector) SetSlowThreshold(d time.Duration) {
	c.mu.Lock()
	c.slowThreshold = d
	c.mu.Unlock()
}

// Emit records one span.
func (c *Collector) Emit(s Span) {
	if c == nil || s.TraceID == "" {
		return
	}
	c.mu.Lock()
	tb := c.traces[s.TraceID]
	if tb == nil {
		tb = &traceBuf{seen: make(map[uint64]bool)}
		c.traces[s.TraceID] = tb
		c.order = append(c.order, s.TraceID)
	}
	if tb.seen[s.SpanID] {
		c.mu.Unlock()
		return // duplicate (e.g. echoed back in a trace report)
	}
	tb.seen[s.SpanID] = true
	if len(tb.spans) >= maxSpansPerTrace {
		c.dropped++
	} else {
		tb.spans = append(tb.spans, s)
		c.total++
	}

	h := c.hops[s.Name]
	if h == nil {
		h = metrics.NewHistogramCap(hopReservoir)
		c.hops[s.Name] = h
	}

	if s.Entry && c.slowThreshold > 0 && s.Duration() >= c.slowThreshold {
		st := SlowTrace{
			TraceID:    s.TraceID,
			At:         time.Now().UnixNano(),
			RootMicros: s.DurMicros,
			Spans:      append([]Span(nil), tb.spans...),
		}
		c.slow = append(c.slow, st)
		if len(c.slow) > c.slowCap {
			c.slow = c.slow[len(c.slow)-c.slowCap:]
		}
	}

	for c.total > c.cap && len(c.order) > 1 {
		oldest := c.order[0]
		c.order = c.order[1:]
		if ev := c.traces[oldest]; ev != nil {
			c.total -= len(ev.spans)
			delete(c.traces, oldest)
		}
	}
	c.mu.Unlock()

	// The histogram has its own lock; recording outside the collector's
	// critical section keeps the global mutex short — every span from every
	// connection funnels through it.
	h.Record(s.Duration())
}

// Ingest folds spans reported by another hop into the collector.
func (c *Collector) Ingest(spans []Span) {
	for _, s := range spans {
		c.Emit(s)
	}
}

// Trace returns the retained spans of one trace (nil when unknown or
// evicted).
func (c *Collector) Trace(id string) []Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	tb := c.traces[id]
	if tb == nil {
		return nil
	}
	return append([]Span(nil), tb.spans...)
}

// Slow returns up to max recent slow traces, most recent last. max <= 0
// returns all retained.
func (c *Collector) Slow(max int) []SlowTrace {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.slow
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	cp := make([]SlowTrace, len(out))
	copy(cp, out)
	return cp
}

// HopStats returns per-hop (by span name) latency percentiles, sorted by
// name — the aggregate view folded into the pipeline stats output.
func (c *Collector) HopStats() []metrics.HopStat {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	names := make([]string, 0, len(c.hops))
	for n := range c.hops {
		names = append(names, n)
	}
	hs := make(map[string]*metrics.Histogram, len(c.hops))
	for n, h := range c.hops {
		hs[n] = h
	}
	c.mu.Unlock()

	sortStrings(names)
	out := make([]metrics.HopStat, 0, len(names))
	for _, n := range names {
		out = append(out, hs[n].HopStat(n))
	}
	return out
}

// SpanCount returns the number of retained spans (for tests and stats).
func (c *Collector) SpanCount() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Dropped returns how many spans were discarded by per-trace bounding.
func (c *Collector) Dropped() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// sortStrings is a dependency-light insertion sort; hop-name sets are tiny.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// requestSpanCap bounds the spans one request may buffer for its response
// frame; beyond it, spans still reach the collector but stop riding the
// reply.
const requestSpanCap = 256

// RequestRecorder scopes span collection to one request: every span goes
// to the process Collector and into a bounded per-request buffer that the
// serving layer drains onto the response frame (or, at the originating
// client, into a trace report to the MDM). Safe for concurrent use — a
// batch resolve records entries from many goroutines.
type RequestRecorder struct {
	col *Collector

	mu    sync.Mutex
	spans []Span
}

// NewRequestRecorder builds a request recorder over a collector (which may
// be nil — spans then only buffer for the reply).
func NewRequestRecorder(col *Collector) *RequestRecorder {
	return &RequestRecorder{col: col}
}

// Emit records a locally produced span.
func (r *RequestRecorder) Emit(s Span) {
	if r == nil {
		return
	}
	if r.col != nil {
		r.col.Emit(s)
	}
	r.mu.Lock()
	if len(r.spans) < requestSpanCap {
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
}

// Ingest folds spans piggybacked by a downstream hop into the request.
// They only buffer for the trace report — the local collector keeps this
// site's own spans (remote sites index their own; duplicating them here
// costs map and histogram work on every response and skews the local
// per-hop stats with latencies measured elsewhere).
func (r *RequestRecorder) Ingest(spans []Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	for _, s := range spans {
		if len(r.spans) >= requestSpanCap {
			break
		}
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
}

// Drain returns the request's buffered spans. The serving layer calls it
// when building the reply frame; callers must not mutate the result.
func (r *RequestRecorder) Drain() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out
}
