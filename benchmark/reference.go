package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// The yardstick is a fixed piece of work that the benchmark runs between
// slices of a workload to read how fast the machine is at that moment. The
// sandbox is a small VM on a shared host: for minutes at a time it runs at
// half its speed, CPU seconds and wall seconds alike, or loses its cores for
// milliseconds at a stretch (baseline/repeat-slow-spell.txt; the driver's own
// check saw ops_per_s spread over 80 % of its median between runs of one
// commit). A raw time then says more about the neighbours than about the
// program, so every end-to-end time is reported at reference speed: scaled by
// how fast the yardstick ran just before and after it, relative to
// nominalRefNS.
//
// The yardstick is the benchmark's own code over the standard library only:
// it calls nothing of the program under test and allocates nothing, so
// neither the program's code nor the size of its heap moves it. One iteration
// has the shape of one op: a length-prefixed JSON request written to a
// loopback TCP connection and read back from its other end, a JSON reply
// carrying an XML payload sent the other way, and the payload scanned tag by
// tag. One lane per client runs at once, each on its own thread, so the
// yardstick loads the cores the way the closed loop does. A lane holds both
// ends of its connection and never hands over to another goroutine: ping-pong
// between goroutines made the Go scheduler, not the machine, set its pace.

// nominalRefNS is what one yardstick iteration takes, wall and CPU alike, in
// this sandbox while its host is quiet. It only fixes the unit ("microseconds
// on a machine where an iteration takes 45 us"); a comparison between two
// commits does not depend on it.
const nominalRefNS = 45000.0

// refScans is how many times the caller scans each reply: it sets the share of
// an iteration spent in user space (about three quarters, as in an op).
const refScans = 40

var (
	refRequestHead = []byte(`{"type":"resolve","path":"/user[@id='u00000']/address-book","context":{"requester":"friend-0","role":"friend","purpose":"query"},"id":`)
	refReplyHead   = []byte(`{"store":"s0.gup.example","expires":1790000000,"id":`)
	refPayload     = func() []byte {
		var b bytes.Buffer
		b.WriteString(`,"payload":"<address-book>`)
		for i := 0; i < 8; i++ {
			fmt.Fprintf(&b, `<item id='%d' type='personal'><name>Name %d</name><phone kind='cell'>+1-555-01%02d</phone></item>`, i, i, i)
		}
		b.WriteString(`</address-book>"}`)
		return b.Bytes()
	}()
	errRefReply = errors.New("yardstick: wrong reply")
)

// refConn is one end of a lane with its reused buffers.
type refConn struct {
	c   net.Conn
	r   *bufio.Reader
	w   *bufio.Writer
	in  []byte
	out []byte
}

func newRefConn(c net.Conn) *refConn {
	return &refConn{c: c, r: bufio.NewReader(c), w: bufio.NewWriter(c), in: make([]byte, 0, 4096), out: make([]byte, 0, 4096)}
}

// send writes head, id and tail as one length-prefixed frame.
func (rc *refConn) send(head []byte, id uint64, tail []byte) error {
	rc.out = append(rc.out[:0], 0, 0, 0, 0)
	rc.out = append(rc.out, head...)
	rc.out = strconv.AppendUint(rc.out, id, 10)
	rc.out = append(rc.out, tail...)
	binary.BigEndian.PutUint32(rc.out, uint32(len(rc.out)-4))
	if _, err := rc.w.Write(rc.out); err != nil {
		return err
	}
	return rc.w.Flush()
}

// recv reads one frame and returns the number after `"id":` and what
// follows it.
func (rc *refConn) recv() (id uint64, rest []byte, err error) {
	var hdr [4]byte
	if _, err = io.ReadFull(rc.r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > cap(rc.in) {
		return 0, nil, errRefReply
	}
	rc.in = rc.in[:n]
	if _, err = io.ReadFull(rc.r, rc.in); err != nil {
		return 0, nil, err
	}
	i := bytes.Index(rc.in, []byte(`"id":`))
	if i < 0 {
		return 0, nil, errRefReply
	}
	rest = rc.in[i+5:]
	for len(rest) > 0 && rest[0] >= '0' && rest[0] <= '9' {
		id = id*10 + uint64(rest[0]-'0')
		rest = rest[1:]
	}
	return id, rest, nil
}

// countTags scans an XML text and counts its opening tags and attributes.
func countTags(text []byte) (tags, attrs int) {
	for {
		lt := bytes.IndexByte(text, '<')
		if lt < 0 {
			return
		}
		gt := bytes.IndexByte(text[lt:], '>')
		if gt < 0 {
			return
		}
		tag := text[lt+1 : lt+gt]
		text = text[lt+gt+1:]
		if len(tag) > 0 && tag[0] != '/' {
			tags++
			attrs += bytes.Count(tag, []byte("='"))
		}
	}
}

// refLane is one goroutine's loopback TCP connection with both of its ends:
// the goroutine plays caller and responder in turn, so an iteration crosses
// the kernel four times without handing over to another goroutine.
type refLane struct {
	caller, responder *refConn
	ns                []int64 // iteration times of the current reading
}

type yardstick struct {
	lanes []*refLane
}

func newYardstick(lanes int) (*yardstick, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	y := &yardstick{}
	for i := 0; i < lanes; i++ {
		a, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			y.close()
			return nil, err
		}
		b, err := ln.Accept()
		if err != nil {
			a.Close()
			y.close()
			return nil, err
		}
		y.lanes = append(y.lanes, &refLane{caller: newRefConn(a), responder: newRefConn(b), ns: make([]int64, 0, 1<<16)})
	}
	return y, nil
}

func (y *yardstick) close() {
	for _, l := range y.lanes {
		l.caller.c.Close()
		l.responder.c.Close()
	}
}

// iterate is one iteration: request out, request in, reply out, reply in,
// payload scanned refScans times.
func (l *refLane) iterate(id uint64) error {
	if err := l.caller.send(refRequestHead, id, []byte("}")); err != nil {
		return err
	}
	got, _, err := l.responder.recv()
	if err != nil {
		return err
	}
	if err := l.responder.send(refReplyHead, got, refPayload); err != nil {
		return err
	}
	got, rest, err := l.caller.recv()
	if err != nil {
		return err
	}
	tags, attrs := 0, 0
	for k := 0; k < refScans; k++ {
		t, a := countTags(rest)
		tags, attrs = tags+t, attrs+a
	}
	if got != id || tags != 25*refScans || attrs != 24*refScans {
		return errRefReply
	}
	return nil
}

// refReading is one reading of the yardstick, per iteration. Each field
// scales the kind of metric that behaves like it when the machine is
// disturbed: wallNS what depends on the time all ops took together
// (ops_per_s, setup_s), cpuNS CPU time, medianNS the latency of the typical
// op, which a stall that hits one op in ten leaves alone.
type refReading struct {
	wallNS   float64 // mean wall time, in the fastest of refWindows windows
	cpuNS    float64 // mean thread CPU time
	medianNS float64 // median wall time
	n        int
}

// between is the reading a slice of work is scaled by: the mean of the one
// before and the one after it.
func between(a, b refReading) refReading {
	return refReading{wallNS: (a.wallNS + b.wallNS) / 2, cpuNS: (a.cpuNS + b.cpuNS) / 2, medianNS: (a.medianNS + b.medianNS) / 2, n: a.n + b.n}
}

// threadCPU is the calling thread's user+system CPU time.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(1 /* RUSAGE_THREAD */, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// A reading lasts refRead, after refGap of idling in which the collector
// finishes the cycle the workload left running (it has the idle cores to
// itself, and would otherwise share them with the yardstick for longer than
// the reading lasts). The reading is cut into refWindows equal windows and
// its wall time is that of the fastest, because background work of the
// process and freezes of the whole VM only ever slow a window down.
const (
	refGap     = 150 * time.Millisecond
	refRead    = 250 * time.Millisecond
	refWindows = 5
)

// read idles for settle, then runs every lane for d.
func (y *yardstick) read(settle, d time.Duration) (refReading, error) {
	time.Sleep(settle)
	start := time.Now()
	deadline := start.Add(d)
	type laneResult struct {
		err    error
		cpu    time.Duration
		sums   [refWindows]int64
		counts [refWindows]int64
	}
	res := make([]laneResult, len(y.lanes))
	var wg sync.WaitGroup
	for i, l := range y.lanes {
		wg.Add(1)
		go func(l *refLane, r *laneResult) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			cpu0 := threadCPU()
			defer func() { r.cpu = threadCPU() - cpu0 }()
			l.ns = l.ns[:0]
			var id uint64
			for t0 := time.Now(); t0.Before(deadline) && len(l.ns) < cap(l.ns); {
				id++
				if r.err = l.iterate(id); r.err != nil {
					return
				}
				t1 := time.Now()
				w := min(refWindows-1, int(int64(t0.Sub(start))*refWindows/int64(d)))
				r.sums[w] += int64(t1.Sub(t0))
				r.counts[w]++
				l.ns = append(l.ns, int64(t1.Sub(t0)))
				t0 = t1
			}
		}(l, &res[i])
	}
	wg.Wait()
	var all []int64
	var cpu time.Duration
	for i, l := range y.lanes {
		if res[i].err != nil {
			return refReading{}, res[i].err
		}
		all = append(all, l.ns...)
		cpu += res[i].cpu
	}
	if len(all) == 0 {
		return refReading{}, fmt.Errorf("yardstick: no iteration completed in %v", d)
	}
	r := refReading{n: len(all), cpuNS: float64(cpu) / float64(len(all))}
	for w := 0; w < refWindows; w++ {
		var sum, n int64
		for i := range res {
			sum, n = sum+res[i].sums[w], n+res[i].counts[w]
		}
		if n > 0 && (r.wallNS == 0 || float64(sum)/float64(n) < r.wallNS) {
			r.wallNS = float64(sum) / float64(n)
		}
	}
	slices.Sort(all)
	r.medianNS = float64(all[len(all)/2])
	return r, nil
}
