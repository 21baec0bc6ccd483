package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram()
	if h.Percentile(50) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Error("empty histogram should report zeros")
	}
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d", h.Count())
	}
	if got := h.Percentile(50); got != 50*time.Millisecond {
		t.Errorf("p50 = %v", got)
	}
	if got := h.Percentile(99); got != 99*time.Millisecond {
		t.Errorf("p99 = %v", got)
	}
	if got := h.Percentile(100); got != 100*time.Millisecond {
		t.Errorf("p100 = %v", got)
	}
	if got := h.Min(); got != time.Millisecond {
		t.Errorf("min = %v", got)
	}
	if got := h.Max(); got != 100*time.Millisecond {
		t.Errorf("max = %v", got)
	}
	if got := h.Mean(); got != 50500*time.Microsecond {
		t.Errorf("mean = %v", got)
	}
	s := h.Summary()
	for _, frag := range []string{"mean=", "p50=", "p99=", "max="} {
		if !strings.Contains(s, frag) {
			t.Errorf("summary %q missing %q", s, frag)
		}
	}
}

func TestHistogramRecordAfterRead(t *testing.T) {
	h := NewHistogram()
	h.Record(2 * time.Millisecond)
	_ = h.Percentile(50)
	h.Record(1 * time.Millisecond) // must re-sort
	if got := h.Min(); got != time.Millisecond {
		t.Errorf("min = %v", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Record(time.Duration(j))
				if j%100 == 0 {
					h.Percentile(90)
				}
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("Count = %d", h.Count())
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("E1: query patterns", "pattern", "latency", "bytes")
	tb.AddRow("referral", 120*time.Microsecond, 4096)
	tb.AddRow("chaining", 1.5, "8192")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "E1: query patterns" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "pattern") || !strings.Contains(lines[1], "bytes") {
		t.Errorf("header = %q", lines[1])
	}
	if !strings.Contains(lines[2], "---") {
		t.Errorf("separator = %q", lines[2])
	}
	if !strings.Contains(out, "referral") || !strings.Contains(out, "1.50") {
		t.Errorf("rows:\n%s", out)
	}
	// Columns align: every data line has the header's column positions.
	hdrIdx := strings.Index(lines[1], "latency")
	if !strings.HasPrefix(lines[3][hdrIdx:], "120") {
		t.Errorf("misaligned columns:\n%s", out)
	}
}
