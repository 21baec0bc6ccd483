// Package metrics provides the small measurement kit the benchmark harness
// uses: latency histograms with percentiles and an aligned table renderer for reproducing the experiment tables in
// EXPERIMENTS.md.
package metrics

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"
)

// DefaultReservoir bounds a histogram's retained samples. It comfortably
// exceeds every finite bench run's sample count (the largest, E16's
// referral phase, records 4096), so percentiles there stay exact; beyond
// it the histogram switches to uniform reservoir sampling (Vitter's
// algorithm R) so long-running uses — the per-hop trace percentiles —
// hold memory constant forever.
const DefaultReservoir = 1 << 15

// Histogram accumulates duration samples with bounded memory: up to its
// reservoir capacity every sample is kept (percentiles are exact), after
// which samples are reservoir-sampled uniformly (percentiles are
// estimates over a uniform subsample). Count, Mean, Min and Max stay
// exact regardless. Safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	cap     int
	samples []time.Duration
	sorted  bool
	n       uint64        // total observed
	sum     time.Duration // exact running sum
	min     time.Duration // exact extremes
	max     time.Duration
	rnd     *rand.Rand
}

// NewHistogram returns an empty histogram with the default reservoir.
func NewHistogram() *Histogram {
	return NewHistogramCap(DefaultReservoir)
}

// NewHistogramCap returns an empty histogram retaining at most capacity
// samples (<= 0 means DefaultReservoir).
func NewHistogramCap(capacity int) *Histogram {
	if capacity <= 0 {
		capacity = DefaultReservoir
	}
	return &Histogram{cap: capacity}
}

// Record adds one sample.
func (h *Histogram) Record(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.cap == 0 {
		h.cap = DefaultReservoir // zero-value Histograms keep working
	}
	h.n++
	h.sum += d
	if h.n == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	if len(h.samples) < h.cap {
		h.samples = append(h.samples, d)
		h.sorted = false
		return
	}
	// Reservoir full: keep each of the n samples with probability cap/n.
	if h.rnd == nil {
		h.rnd = rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(h.n)))
	}
	if j := h.rnd.Int63n(int64(h.n)); j < int64(h.cap) {
		h.samples[j] = d
		h.sorted = false
	}
}

// Count returns the total number of recorded samples (including any no
// longer retained in the reservoir).
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int(h.n)
}

func (h *Histogram) ensureSorted() {
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
}

// Percentile returns the p-th percentile (0 < p ≤ 100); zero with no
// samples. Exact while the sample count is within the reservoir, an
// estimate over a uniform subsample beyond it.
func (h *Histogram) Percentile(p float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	h.ensureSorted()
	idx := int(p/100*float64(len(h.samples))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.samples) {
		idx = len(h.samples) - 1
	}
	return h.samples[idx]
}

// Mean returns the arithmetic mean; zero with no samples. Always exact.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	return h.sum / time.Duration(h.n)
}

// Min returns the smallest sample; zero with no samples. Always exact.
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max returns the largest sample. Always exact.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Retained reports how many samples the reservoir currently holds (for
// tests asserting boundedness).
func (h *Histogram) Retained() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// HopStat is the aggregate latency view of one hop (one span name) of the
// resolve fabric, folded into the pipeline stats output.
type HopStat struct {
	Name      string `json:"name"`
	Count     uint64 `json:"count"`
	P50Micros int64  `json:"p50_us"`
	P95Micros int64  `json:"p95_us"`
	P99Micros int64  `json:"p99_us"`
	MaxMicros int64  `json:"max_us"`
}

// HopStat summarizes the histogram under a hop name.
func (h *Histogram) HopStat(name string) HopStat {
	h.mu.Lock()
	n := h.n
	h.mu.Unlock()
	return HopStat{
		Name:      name,
		Count:     n,
		P50Micros: h.Percentile(50).Microseconds(),
		P95Micros: h.Percentile(95).Microseconds(),
		P99Micros: h.Percentile(99).Microseconds(),
		MaxMicros: h.Max().Microseconds(),
	}
}

// Summary renders "mean / p50 / p99 / max" compactly.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("mean=%s p50=%s p99=%s max=%s",
		round(h.Mean()), round(h.Percentile(50)), round(h.Percentile(99)), round(h.Max()))
}

func round(d time.Duration) time.Duration {
	switch {
	case d > time.Second:
		return d.Round(time.Millisecond)
	case d > time.Millisecond:
		return d.Round(time.Microsecond)
	default:
		return d.Round(time.Nanosecond)
	}
}

// Table renders aligned experiment tables.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable declares columns.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; values are stringified with %v.
func (t *Table) AddRow(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", x)
		case time.Duration:
			row[i] = round(x).String()
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for pad := len(c); pad < widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
