// Package eventlog captures the process's log/slog events, so that code
// waits for a state transition by the event that announces it instead of
// polling for the state or taking a callback.
//
// Install wraps slog's default handler: every event at or above the
// capture's level is recorded, and every event the wrapped handler is
// enabled for still reaches it, so a program that prints only warnings
// keeps printing only warnings while the capture sees its Info events.
// Await blocks until a recorded event matches; each recorded event wakes
// it.
//
// The capture is process-wide, like slog's default logger: a waiter picks
// its own events out by their attributes (a member's address, a shard's
// ID), and captures nest, removed in the reverse order of installing.
package eventlog

import (
	"context"
	"io"
	"log"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one captured record with its attributes by key. Attributes
// bound by slog.Logger.With or WithGroup reach the wrapped handler but are
// not captured: no event is logged through such a logger.
type Event struct {
	Time    time.Time
	Level   slog.Level
	Message string
	Attrs   map[string]slog.Value
}

// Capture is an installed capturing handler.
type Capture struct {
	min   slog.Level
	prev  *slog.Logger
	w     io.Writer
	flags int
	// forward holds the wrapped handler back until Install has pointed the
	// log package at its writer again: slog.SetDefault routes the log
	// package through the new handler, and slog's own default handler
	// writes through the log package, so forwarding before then could
	// re-enter the log package's lock.
	forward atomic.Bool

	mu     sync.Mutex
	events []Event
	grew   chan struct{} // closed and replaced by every recorded event
}

// Install makes a capture of every event at level min or above the handler
// of slog's default logger, wrapping the handler that was there.
func Install(min slog.Level) *Capture {
	c := &Capture{min: min, prev: slog.Default(), w: log.Writer(), flags: log.Flags(), grew: make(chan struct{})}
	slog.SetDefault(slog.New(&handler{c: c, next: c.prev.Handler()}))
	log.SetOutput(c.w)
	log.SetFlags(c.flags)
	c.forward.Store(true)
	return c
}

// Remove restores slog's default logger and the log package's writer and
// flags to what Install found.
func (c *Capture) Remove() {
	slog.SetDefault(c.prev)
	log.SetOutput(c.w)
	log.SetFlags(c.flags)
}

// Len is the number of events recorded so far: the index the next one
// will take, and so the from an Await passes to see only what follows.
func (c *Capture) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// Since returns the events recorded at index from and after.
func (c *Capture) Since(from int) []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.events[min(from, len(c.events)):])
}

// Await returns the first event at index from or after that match accepts,
// blocking until one is recorded; false once deadline passes without one.
func (c *Capture) Await(from int, deadline time.Time, match func(Event) bool) (Event, bool) {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for {
		c.mu.Lock()
		events, grew := c.events, c.grew
		c.mu.Unlock()
		// Recorded events are never changed, so they are matched outside
		// the lock: match may itself log.
		for ; from < len(events); from++ {
			if match(events[from]) {
				return events[from], true
			}
		}
		select {
		case <-grew:
		case <-timer.C:
			return Event{}, false
		}
	}
}

// Is matches an event with message msg whose attributes include every
// key/value pair of kv, the values compared as strings.
func Is(msg string, kv ...string) func(Event) bool {
	return func(ev Event) bool {
		if ev.Message != msg {
			return false
		}
		for i := 0; i+1 < len(kv); i += 2 {
			if v, ok := ev.Attrs[kv[i]]; !ok || v.String() != kv[i+1] {
				return false
			}
		}
		return true
	}
}

func (c *Capture) record(ev Event) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	close(c.grew)
	c.grew = make(chan struct{})
	c.mu.Unlock()
}

// handler is the capture as slog sees it, in front of the handler it
// wraps.
type handler struct {
	c    *Capture
	next slog.Handler
}

func (h *handler) Enabled(ctx context.Context, level slog.Level) bool {
	return level >= h.c.min || h.next.Enabled(ctx, level)
}

func (h *handler) Handle(ctx context.Context, r slog.Record) error {
	if r.Level >= h.c.min {
		ev := Event{Time: r.Time, Level: r.Level, Message: r.Message, Attrs: make(map[string]slog.Value, r.NumAttrs())}
		r.Attrs(func(a slog.Attr) bool {
			ev.Attrs[a.Key] = a.Value.Resolve()
			return true
		})
		h.c.record(ev)
	}
	if h.c.forward.Load() && h.next.Enabled(ctx, r.Level) {
		return h.next.Handle(ctx, r)
	}
	return nil
}

func (h *handler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &handler{c: h.c, next: h.next.WithAttrs(attrs)}
}

func (h *handler) WithGroup(name string) slog.Handler {
	return &handler{c: h.c, next: h.next.WithGroup(name)}
}
