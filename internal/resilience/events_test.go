package resilience

import (
	"context"
	"log"
	"log/slog"
	"sync"
	"testing"
	"time"
)

// capturedEvents records every event handed to slog's default logger, at
// every level.
type capturedEvents struct {
	mu   sync.Mutex
	recs []slog.Record
}

// captureEvents makes a capturedEvents slog's default logger until the
// test ends. A test that calls it must not run in parallel.
func captureEvents(t *testing.T) *capturedEvents {
	c := &capturedEvents{}
	prev, w, flags := slog.Default(), log.Writer(), log.Flags()
	slog.SetDefault(slog.New(c))
	t.Cleanup(func() {
		// SetDefault also redirected the log package; point it back.
		slog.SetDefault(prev)
		log.SetOutput(w)
		log.SetFlags(flags)
	})
	return c
}

func (c *capturedEvents) Enabled(context.Context, slog.Level) bool { return true }
func (c *capturedEvents) WithAttrs([]slog.Attr) slog.Handler       { return c }
func (c *capturedEvents) WithGroup(string) slog.Handler            { return c }

func (c *capturedEvents) Handle(_ context.Context, r slog.Record) error {
	c.mu.Lock()
	c.recs = append(c.recs, r.Clone())
	c.mu.Unlock()
	return nil
}

// await waits up to two seconds for an event with message msg whose
// attributes include want, compared as strings, and returns all of its
// attributes.
func (c *capturedEvents) await(msg string, want map[string]string) (map[string]slog.Value, bool) {
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if attrs, ok := c.find(msg, want); ok {
			return attrs, true
		}
	}
	return nil, false
}

func (c *capturedEvents) find(msg string, want map[string]string) (map[string]slog.Value, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
next:
	for _, r := range c.recs {
		if r.Message != msg {
			continue
		}
		attrs := map[string]slog.Value{}
		r.Attrs(func(a slog.Attr) bool {
			attrs[a.Key] = a.Value
			return true
		})
		for k, v := range want {
			if got, ok := attrs[k]; !ok || got.String() != v {
				continue next
			}
		}
		return attrs, true
	}
	return nil, false
}
