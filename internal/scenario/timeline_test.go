package scenario

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// recorder is a stub action table: every action appends its name to one
// log, so the tests below watch the scheduler without a rig under it.
type recorder struct {
	mu  sync.Mutex
	log []string
}

func (r *recorder) note(s string) {
	r.mu.Lock()
	r.log = append(r.log, s)
	r.mu.Unlock()
}

func (r *recorder) table(extra map[string]action) map[string]action {
	t := map[string]action{}
	for _, name := range []string{ActionLink, ActionReregister, ActionKill, ActionPartition, ActionRebalance} {
		t[name] = func(tl *timeline, ev *Event) { r.note(ev.Action + " " + ev.Target) }
	}
	for name, a := range extra {
		t[name] = a
	}
	return t
}

func (r *recorder) seen() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.log...)
}

// TestTimelineFiresInAtOrder lists a phase's events out of order: they must
// fire by At, the instant-0 link setting ahead of the instant-0 herd, and
// what the actions report must land in the phase's row.
func TestTimelineFiresInAtOrder(t *testing.T) {
	var rec recorder
	p := &Phase{Name: "p", Duration: time.Second, Events: []Event{
		{At: 60 * time.Millisecond, Action: ActionKill, Target: "leader"},
		{At: 0, Action: ActionReregister, Target: "all-dead"},
		{At: 30 * time.Millisecond, Action: ActionRebalance},
		{At: 0, Action: ActionLink, Target: "store-0"},
	}}
	tl := &timeline{phase: p, log: t.Logf, table: rec.table(map[string]action{
		ActionKill: func(tl *timeline, ev *Event) {
			rec.note("kill leader")
			tl.report(func(out *PhaseReport) { out.FailoverMillis = 7 })
		},
		ActionReregister: func(tl *timeline, ev *Event) {
			rec.note("reregister all-dead")
			tl.report(func(out *PhaseReport) { out.Errors++ })
		},
	})}
	pr, err := tl.run(func() (*PhaseReport, error) {
		time.Sleep(20 * time.Millisecond) // the load may end before the last event: run still waits for it
		return &PhaseReport{Errors: 2}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"link store-0", "reregister all-dead", "rebalance ", "kill leader"}
	if got := rec.seen(); !reflect.DeepEqual(got, want) {
		t.Errorf("events fired as %q, want %q", got, want)
	}
	if pr.FailoverMillis != 7 || pr.Errors != 3 {
		t.Errorf("phase row has failover %dms and %d errors, want the kill's 7ms and the load's 2 errors plus the herd's 1",
			pr.FailoverMillis, pr.Errors)
	}
}

// TestTimelineLinksLandBeforeFirstRequest: a link setting at instant 0 is
// in place when the load draws its first request, however the file ordered
// it; the herd of the same instant runs beside the load.
func TestTimelineLinksLandBeforeFirstRequest(t *testing.T) {
	var rec recorder
	opts := RunOptions{OnRequest: func(phase string, client int, req Request) { rec.note("request " + req.Verb) }}
	blackout := true
	p := &Phase{Name: "p", Rate: Rate{PerSec: 10}, Duration: time.Second,
		Mix: []MixEntry{{Verb: VerbFetch}},
		Events: []Event{
			{Action: ActionReregister, Target: "all-dead"},
			{Action: ActionLink, Target: "store-1", Blackout: &blackout},
		}}
	herd := make(chan struct{})
	tl := &timeline{phase: p, log: t.Logf, table: rec.table(map[string]action{
		ActionReregister: func(tl *timeline, ev *Event) { <-herd; rec.note("reregister") },
	})}
	_, err := tl.run(func() (*PhaseReport, error) {
		opts.OnRequest(p.Name, -1, newDrawer(1, 0, -1, p, []string{"u"}).next())
		close(herd) // the herd is still running when the first request is drawn
		return &PhaseReport{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"link store-1", "request fetch", "reregister"}
	if got := rec.seen(); !reflect.DeepEqual(got, want) {
		t.Errorf("saw %q, want %q", got, want)
	}
}

// TestTimelineFastModeClampsLateEvents: fast mode cuts the send window to
// 500ms, so an event the file puts a second in would never fire under
// load; the scheduler pulls it to the window's middle.
func TestTimelineFastModeClampsLateEvents(t *testing.T) {
	p := &Phase{Name: "p", Duration: 2 * time.Second, Events: []Event{
		{At: time.Second, Action: ActionKill, Target: "shard-1"},
	}}
	start := time.Now()
	var firedAt time.Duration
	tl := &timeline{phase: p, fast: true, log: t.Logf, table: map[string]action{
		ActionKill: func(tl *timeline, ev *Event) { firedAt = time.Since(start) },
	}}
	_, err := tl.run(func() (*PhaseReport, error) {
		time.Sleep(p.window(true))
		return &PhaseReport{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w := p.window(true); firedAt < w/2 || firedAt >= w {
		t.Errorf("event at 1s fired %s into a %s fast window, want it clamped to the middle", firedAt, w)
	}
}
