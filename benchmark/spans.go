package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gupster/internal/token"
	"gupster/internal/wire"
)

// Spans are the benchmark's own: recorded around the exported calls it makes
// into the program, kept in memory, written out when the run ends. The
// program's internal trace package stays off.

// span is one timed call. IDs are 1-based positions in the worker's log; a
// span's Op is the ID of the "op" span it belongs to, so shadow spans (made
// after the op completed, Parent 0) still name their op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced wave began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op"`
}

// spanLog belongs to one worker goroutine; no locking. A nil log records
// nothing, so untraced waves pay one nil check per call site.
type spanLog struct {
	t0     time.Time
	spans  []span
	sample int // ops seen, for the 1-in-16 shadow sample
}

func newSpanLog(t0 time.Time) *spanLog {
	return &spanLog{t0: t0, spans: make([]span, 0, 1<<16)}
}

func (l *spanLog) begin(name string, parent, op int) int {
	if l == nil {
		return 0
	}
	id := len(l.spans) + 1
	if op == 0 {
		op = id
	}
	l.spans = append(l.spans, span{Name: name, Start: int64(time.Since(l.t0)), Parent: parent, Op: op})
	return id
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].End = int64(time.Since(l.t0))
}

// shadowEvery is the sampling period of the in-process shadow calls.
const shadowEvery = 16

// shadow repeats, in-process and after the op has completed, the work the
// op asked of the MDM and the stores, so that client.resolve minus
// mdm.resolve.inproc is the socket-plus-dispatch share of a resolve.
func (w *worker) shadow(ctx context.Context, spec workloadSpec, r *rig, req *wire.ResolveRequest, resp *wire.ResolveResponse, op int) {
	w.spans.sample++
	if w.spans.sample%shadowEvery != 0 {
		return
	}
	sp := w.spans.begin("mdm.resolve.inproc", 0, op)
	_, err := r.mdm.Resolve(ctx, req)
	w.spans.end(sp)
	if err != nil {
		w.fail(fmt.Errorf("shadow resolve %s: %w", req.Path, err))
		return
	}
	if spec.op == opChurn {
		return // the op never touched a store
	}
	if len(resp.Alternatives) == 0 {
		// A chained reply carries data, not referrals; ask for them.
		ref := *req
		ref.Pattern = wire.PatternReferral
		if resp, err = r.mdm.Resolve(ctx, &ref); err != nil {
			w.fail(fmt.Errorf("shadow referral %s: %w", req.Path, err))
			return
		}
	}
	sp = w.spans.begin("store.fetch.inproc", 0, op)
	for i := range resp.Alternatives[0].Referrals {
		q := &resp.Alternatives[0].Referrals[i].Query
		eng := r.engineByID(q.Store)
		if err = r.signer.Verify(q, q.Store, token.VerbFetch); err == nil {
			p, perr := q.ParsedPath()
			if err = perr; err == nil {
				_, _, err = eng.Get(q.Owner, p)
			}
		}
		if err != nil {
			break
		}
	}
	w.spans.end(sp)
	if err != nil {
		w.fail(fmt.Errorf("shadow fetch %s: %w", req.Path, err))
	}
}

// spanStat summarises one span name over a traced wave.
type spanStat struct {
	count  int
	selfNS []int64
}

// selfTimes computes every span's self time (duration minus the part its
// children cover) and checks the trace's own arithmetic: self times are
// never negative, and an op's spans sum to the op span's duration.
func selfTimes(logs []*spanLog) (map[string]*spanStat, error) {
	stats := make(map[string]*spanStat)
	for _, l := range logs {
		childNS := make([]int64, len(l.spans))
		for _, s := range l.spans {
			if s.Parent != 0 {
				childNS[s.Parent-1] += s.End - s.Start
			}
		}
		opSum := make(map[int]int64)
		for i, s := range l.spans {
			self := s.End - s.Start - childNS[i]
			if s.End < s.Start || self < 0 {
				return nil, fmt.Errorf("span %s #%d has negative self time %d ns", s.Name, i+1, self)
			}
			st := stats[s.Name]
			if st == nil {
				st = &spanStat{}
				stats[s.Name] = st
			}
			st.count++
			st.selfNS = append(st.selfNS, self)
			if s.Parent != 0 || s.Name == "op" {
				opSum[s.Op] += self
			}
		}
		for op, sum := range opSum {
			dur := l.spans[op-1].End - l.spans[op-1].Start
			if diff := sum - dur; diff*100 > dur || -diff*100 > dur {
				return nil, fmt.Errorf("op #%d: self times sum to %d ns, op span is %d ns", op, sum, dur)
			}
		}
	}
	return stats, nil
}

// writeSpans writes the traced wave to out/trace-<workload>.json with IDs
// made unique across workers.
func writeSpans(outDir, workload string, logs []*spanLog) (string, error) {
	type fileSpan struct {
		ID     int `json:"id"`
		Worker int `json:"worker"`
		span
	}
	var all []fileSpan
	base := 0
	for w, l := range logs {
		for i, s := range l.spans {
			if s.Parent != 0 {
				s.Parent += base
			}
			s.Op += base
			all = append(all, fileSpan{ID: base + i + 1, Worker: w, span: s})
		}
		base += len(l.spans)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, "trace-"+workload+".json")
	data, err := json.Marshal(all)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
