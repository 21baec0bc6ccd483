package eventlog

import (
	"bytes"
	"log"
	"log/slog"
	"strings"
	"testing"
	"time"
)

// keepDefaults restores slog's default logger and the log package's state
// when the test ends, whatever the test did to them.
func keepDefaults(t *testing.T) {
	prev, w, flags := slog.Default(), log.Writer(), log.Flags()
	level := slog.SetLogLoggerLevel(slog.LevelInfo)
	slog.SetLogLoggerLevel(level)
	t.Cleanup(func() {
		slog.SetDefault(prev)
		log.SetOutput(w)
		log.SetFlags(flags)
		slog.SetLogLoggerLevel(level)
	})
}

// Under slog's own default handler lowered to Warn — what gupbench runs
// without -v — the capture records Info, only the Warn event is printed,
// and printed in the default handler's format; removing the capture puts
// back the logger and the log package's writer and flags.
func TestCaptureBesideDefaultHandlerAtWarn(t *testing.T) {
	keepDefaults(t)
	var out bytes.Buffer
	log.SetOutput(&out)
	log.SetFlags(0)
	slog.SetLogLoggerLevel(slog.LevelWarn)
	before := slog.Default()

	c := Install(slog.LevelInfo)
	slog.Info("election won", "member", "m1", "term", 2)
	slog.Warn("repair failed", "shard", "s1")
	slog.Debug("heartbeat failed")
	if got, want := out.String(), "WARN repair failed shard=s1\n"; got != want {
		t.Errorf("printed %q, want %q", got, want)
	}
	evs := c.Since(0)
	if len(evs) != 2 || evs[0].Message != "election won" || evs[1].Message != "repair failed" {
		t.Fatalf("captured %+v, want election won and repair failed", evs)
	}
	if got := evs[0].Attrs["term"].Int64(); got != 2 {
		t.Errorf("captured term %d, want 2", got)
	}

	c.Remove()
	if slog.Default() != before || log.Writer() != &out || log.Flags() != 0 {
		t.Error("Remove did not restore the default logger, the log writer and its flags")
	}
	slog.Info("after removal")
	if c.Len() != 2 {
		t.Errorf("a removed capture recorded %d events, want 2", c.Len())
	}
}

// Under a handler of its own, the capture forwards what that handler is
// enabled for, and a level-Debug capture records Debug events too.
func TestCaptureWrapsHandler(t *testing.T) {
	keepDefaults(t)
	var out bytes.Buffer
	slog.SetDefault(slog.New(slog.NewTextHandler(&out, nil)))
	c := Install(slog.LevelDebug)
	defer c.Remove()

	slog.Debug("connection read failed", "peer", "p")
	slog.Info("map installed", "shard", "s1", "version", 3)
	if strings.Contains(out.String(), "connection read failed") {
		t.Errorf("a Debug event reached an Info handler: %q", out.String())
	}
	if !strings.Contains(out.String(), "shard=s1 version=3") {
		t.Errorf("the wrapped handler printed %q, want shard=s1 version=3", out.String())
	}
	ev, ok := c.Await(0, time.Now(), Is("map installed", "shard", "s1", "version", "3"))
	if !ok {
		t.Fatalf("no map installed event with shard=s1 version=3 in %+v", c.Since(0))
	}
	if ev.Level != slog.LevelInfo {
		t.Errorf("captured level %v, want INFO", ev.Level)
	}
	if _, ok := c.Await(0, time.Now(), Is("connection read failed", "peer", "p")); !ok {
		t.Error("a level-Debug capture missed a Debug event")
	}
}

// Await blocks until the event it waits for is logged, from the index it
// is given on, and gives up at its deadline.
func TestAwait(t *testing.T) {
	keepDefaults(t)
	log.SetOutput(new(bytes.Buffer))
	c := Install(slog.LevelInfo)
	defer c.Remove()

	slog.Info("election won", "term", 1)
	from := c.Len()
	go func() {
		slog.Info("election started", "term", 2)
		slog.Info("election won", "term", 2)
	}()
	ev, ok := c.Await(from, time.Now().Add(10*time.Second), Is("election won"))
	if !ok || ev.Attrs["term"].Int64() != 2 {
		t.Fatalf("awaited %+v (%v), want the term-2 election won logged after from", ev, ok)
	}
	start := time.Now()
	if ev, ok := c.Await(0, start.Add(20*time.Millisecond), Is("election won", "term", "3")); ok {
		t.Fatalf("awaited %+v, which was never logged", ev)
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Errorf("Await gave up after %s, before its deadline", waited)
	}
}
