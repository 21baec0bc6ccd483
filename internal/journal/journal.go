// Package journal makes the MDM's meta-data directory crash-safe. The
// directory — coverage registrations, store addresses, privacy-shield
// rules — is the Napster-style heart of the federation (paper §4), yet it
// is pure main-memory state; this package gives it the journaling and
// checkpointing discipline of the main-memory directory services the paper
// leans on (the HLR's "main memory relational database", §3.1.2).
//
// The design is a classic write-ahead log plus checkpoint:
//
//   - every meta-data mutation appends one CRC-framed record to an
//     append-only log (wal.log) and is acknowledged only after the record
//     is durably on disk; concurrent appenders share fsyncs (group
//     commit), so a registration burst costs one disk flush, not N,
//   - a periodic snapshot (snapshot.json) captures the whole directory in
//     the wire shapes a registration and a shield rule already take
//     (RegisterRequest / PutRuleRequest); then wal.log is replaced by the
//     records the snapshot does not cover, behind a head frame naming the
//     index they follow. Both files are only ever replaced crash-atomically
//     (temp file, fsync, rename, directory fsync), by one function,
//   - recovery loads the snapshot, numbers the log's records from its head
//     frame, drops those the snapshot already covers, and truncates any
//     torn tail left by a crash mid-append — a partially written record is
//     indistinguishable from one never acknowledged, so dropping it is
//     correct.
package journal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"gupster/internal/wire"
)

// Record operations. One record is one meta-data mutation in its wire
// shape, so replay reuses the exact decode path the server already has.
const (
	OpRegister   = "register"
	OpUnregister = "unregister"
	OpPutRule    = "put-rule"
	OpDeleteRule = "delete-rule"
)

// Record is one journaled mutation. Exactly one of the payload fields is
// set, matching Op. Term is the leader term that produced the record when
// the journal backs a replicated MDM (0 on a standalone node); replication
// uses it for log matching, replay ignores it.
type Record struct {
	Op         string                  `json:"op"`
	Term       uint64                  `json:"term,omitempty"`
	Register   *wire.RegisterRequest   `json:"register,omitempty"`
	Unregister *wire.UnregisterRequest `json:"unregister,omitempty"`
	PutRule    *wire.PutRuleRequest    `json:"put_rule,omitempty"`
	DeleteRule *wire.DeleteRuleRequest `json:"delete_rule,omitempty"`
}

// Snapshot is a checkpoint of the whole directory, in the wire shapes of
// a registration and a shield rule; replication ships it to a follower
// behind the compaction horizon. Index and Term locate the
// checkpoint in the replicated log: the snapshot covers every record up to
// and including Index (both 0 on a standalone node).
type Snapshot struct {
	Coverage []wire.RegisterRequest `json:"coverage"`
	Shields  []wire.PutRuleRequest  `json:"shields"`
	Index    uint64                 `json:"index,omitempty"`
	Term     uint64                 `json:"snap_term,omitempty"`
}

// Options tune a journal.
type Options struct {
	// NoSync skips fsync on append (benchmarks, tests on tmpfs). Records
	// still reach the OS page cache, so an orderly process exit loses
	// nothing — only a machine crash does.
	NoSync bool
	// CompactEvery triggers a snapshot-and-truncate after this many
	// appended records; 0 means DefaultCompactEvery, negative disables
	// automatic compaction.
	CompactEvery int
}

// DefaultCompactEvery bounds log growth: directories mutate rarely, so a
// thousand records is hours of churn yet replays in microseconds.
const DefaultCompactEvery = 1024

// Stats counts journal activity, exported through the MDM's stats surface.
type Stats struct {
	Appends     atomic.Uint64
	Syncs       atomic.Uint64
	Compactions atomic.Uint64
	// RecoveredSnapshot and RecoveredRecords describe the last Open:
	// directory entries loaded from the snapshot and records replayed
	// from the log.
	RecoveredSnapshot atomic.Uint64
	RecoveredRecords  atomic.Uint64
	// TornBytes is how much torn tail the last Open truncated.
	TornBytes atomic.Uint64
}

// Recovered is a journal's durable state — what Open found on disk, or
// what State hands out later: apply Snapshot first, then the Records in
// order.
type Recovered struct {
	Snapshot *Snapshot
	Records  []Record
	// TornBytes counts bytes truncated from the log's torn tail (a crash
	// mid-append); 0 on a clean log.
	TornBytes int64
}

// Journal errors.
var (
	ErrClosed = errors.New("journal: closed")
	// ErrRecordTooLarge rejects absurd records at append time and marks
	// in-log length corruption at replay time.
	ErrRecordTooLarge = errors.New("journal: record exceeds maximum size")
)

// maxRecord bounds one serialized record; directory mutations are tiny,
// so anything near this is corruption.
const maxRecord = 4 << 20

const (
	walName  = "wal.log"
	snapName = "snapshot.json"
)

// frame header: 4-byte big-endian payload length, 4-byte CRC32-Castagnoli
// of the payload.
const headerSize = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// walHead is the payload of a log's first frame: the index, and its term,
// that the log's first record follows. A log without one was written
// before the frame existed and follows the snapshot.
type walHead struct {
	Base uint64 `json:"wal_base"`
	Term uint64 `json:"wal_term,omitempty"`
}

// Journal is an open write-ahead log. All methods are safe for concurrent
// use.
type Journal struct {
	dir  string
	opts Options

	// cutMu serializes the three ways the files are replaced — compaction,
	// snapshot install, tail truncation — with each other. Appends never
	// take it.
	cutMu sync.Mutex

	mu       sync.Mutex
	work     *sync.Cond // wakes the flusher
	done     *sync.Cond // wakes appenders waiting for durability
	f        *os.File
	w        *bufio.Writer
	pending  uint64 // records written to the buffer
	synced   uint64 // records durably flushed (+synced) to disk
	appended int    // records since the last compaction
	// Replicated-log view (see replicate.go): recs[i] is record
	// floor+1+i, base is the index the snapshot covers, and the records
	// floor+1..base are the retained tail — what the last compaction
	// folded, kept so a follower that far behind still catches up from
	// entries. floorTerm is the term at floor.
	floor      uint64
	floorTerm  uint64
	base       uint64
	recs       []Record
	syncErr    error // sticky: a failed flush/fsync poisons the journal
	closed     bool
	compacting bool // a background compaction is running
	// snapFn supplies the directory state for compaction; nil disables
	// automatic and manual compaction.
	snapFn func() Snapshot

	flusherG sync.WaitGroup
	bg       sync.WaitGroup // the background compaction, if any

	// beforeRename, when set, runs just before replace renames its temp
	// file over name; an error aborts the replace. A test seam.
	beforeRename func(name string) error

	stats Stats
}

// Open creates or recovers a journal in dir. The returned Recovered holds
// whatever durable state was found (nil snapshot and no records on first
// boot); the caller applies it before appending new mutations.
func Open(dir string, opts Options) (*Journal, *Recovered, error) {
	if opts.CompactEvery == 0 {
		opts.CompactEvery = DefaultCompactEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{dir: dir, opts: opts, w: bufio.NewWriter(nil)}
	j.work = sync.NewCond(&j.mu)
	j.done = sync.NewCond(&j.mu)

	snap, err := readSnapshot(filepath.Join(dir, snapName))
	if err != nil {
		return nil, nil, err
	}
	data, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	head, records, good := scanWAL(data)
	rec := &Recovered{Snapshot: snap, TornBytes: int64(len(data) - good)}
	if snap != nil {
		j.base, j.floorTerm = snap.Index, snap.Term
		j.stats.RecoveredSnapshot.Store(uint64(len(snap.Coverage) + len(snap.Shields)))
	}
	j.floor = j.base
	switch {
	case head == nil:
		j.recs = records
	case head.Base > j.base:
		return nil, nil, fmt.Errorf("journal: log follows index %d, past the snapshot's %d", head.Base, j.base)
	case head.Base+uint64(len(records)) >= j.base:
		// A crash between a compaction's snapshot rename and its log
		// replace leaves records the snapshot covers at the log's head:
		// they are the retained tail, not records to replay.
		j.floor, j.floorTerm, j.recs = head.Base, head.Term, records
	}
	rec.Records = j.recs[j.base-j.floor:]
	j.stats.RecoveredRecords.Store(uint64(len(rec.Records)))
	j.stats.TornBytes.Store(uint64(rec.TornBytes))
	// Recovered records count against the compaction budget so a crash
	// loop cannot grow the log without bound.
	j.appended = len(rec.Records)

	if head == nil || rec.TornBytes > 0 {
		// First boot, a log from before the head frame, or a torn tail:
		// replace the log once so every append extends a framed, clean one.
		err = j.replaceWALLocked(j.base, j.termAtLocked(j.base), rec.Records)
	} else {
		j.f, err = os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND, 0)
		j.w.Reset(j.f)
	}
	if err != nil {
		return nil, nil, err
	}
	j.flusherG.Add(1)
	go j.flusher()
	return j, rec, nil
}

// SetSnapshotFunc installs the callback that captures the directory for
// compaction — typically after recovery has been applied, so the first
// snapshot is complete. The callback must not append to the journal.
func (j *Journal) SetSnapshotFunc(fn func() Snapshot) {
	j.mu.Lock()
	j.snapFn = fn
	j.mu.Unlock()
}

// Stats exposes the journal's counters.
func (j *Journal) Stats() *Stats { return &j.stats }

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// NoSync reports whether the journal was opened without fsync.
func (j *Journal) NoSync() bool { return j.opts.NoSync }

// Append durably logs one record: it returns only after the record (and,
// thanks to group commit, any records buffered alongside it) has been
// flushed and fsynced.
func (j *Journal) Append(r Record) error {
	_, err := j.AppendBatch([]Record{r})
	return err
}

// AppendIndexed is Append returning the record's global index, assigned
// atomically with the append — the hook replication uses so concurrent
// appenders each learn exactly where their record landed.
func (j *Journal) AppendIndexed(r Record) (uint64, error) {
	return j.AppendBatch([]Record{r})
}

// AppendBatch durably logs records as one unit, sharing a single flush
// and fsync across the whole batch (plus whatever concurrent appenders
// piled into the same group commit). It returns the global index of the
// last record appended. Followers use it to land a shipped entry batch
// at one fsync instead of one per record. The append that crosses
// CompactEvery starts a compaction on the journal's background goroutine
// and does not wait for it.
func (j *Journal) AppendBatch(records []Record) (uint64, error) {
	if len(records) == 0 {
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.lastLocked(), nil
	}
	var buf []byte
	for i := range records {
		var err error
		if buf, err = appendFrame(buf, &records[i]); err != nil {
			return 0, err
		}
	}

	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return 0, ErrClosed
	}
	if j.syncErr == nil {
		if _, err := j.w.Write(buf); err != nil {
			j.syncErr = err
		}
	}
	if j.syncErr != nil {
		err := j.syncErr
		j.mu.Unlock()
		return 0, err
	}
	j.pending += uint64(len(records))
	seq := j.pending
	j.appended += len(records)
	j.recs = append(j.recs, records...)
	last := j.lastLocked()
	every, running := j.opts.CompactEvery, j.compacting
	if every > 0 && j.appended >= every && j.snapFn != nil && !running {
		j.compacting = true
		j.bg.Add(1)
		go j.compactInBackground()
	}
	j.work.Signal()
	// Wait for the flusher to carry this batch (and its group) to disk.
	for j.synced < seq && j.syncErr == nil {
		j.done.Wait()
	}
	// The log may grow to twice CompactEvery while a compaction runs; an
	// append that finds it there waits for that compaction, which bounds
	// the log when the disk is slower than the appenders.
	for running && j.compacting && j.appended >= 2*every && j.syncErr == nil {
		j.done.Wait()
	}
	err := j.syncErr
	j.mu.Unlock()
	if err != nil {
		return 0, err
	}
	j.stats.Appends.Add(uint64(len(records)))
	return last, nil
}

// compactInBackground is the journal's one compaction goroutine; Close
// waits for it.
func (j *Journal) compactInBackground() {
	defer j.bg.Done()
	// Best-effort: a failed compaction leaves the log long but valid.
	_ = j.Compact()
	j.mu.Lock()
	j.compacting = false
	j.done.Broadcast()
	j.mu.Unlock()
}

// flusher is the single goroutine that moves buffered records to disk.
// The buffer flush happens under the lock (it shares the bufio.Writer
// with appenders); the fsync happens outside it, so appends arriving
// during a sync pile into the next batch — that is the group commit.
func (j *Journal) flusher() {
	defer j.flusherG.Done()
	j.mu.Lock()
	for {
		for j.pending == j.synced && !j.closed {
			j.work.Wait()
		}
		if j.pending == j.synced && j.closed {
			j.mu.Unlock()
			return
		}
		target := j.pending
		err := j.w.Flush()
		if err == nil && !j.opts.NoSync {
			f := j.f
			j.mu.Unlock()
			err = f.Sync()
			j.mu.Lock()
			j.stats.Syncs.Add(1)
		}
		j.synced = target
		if err != nil && j.syncErr == nil {
			j.syncErr = err
		}
		j.done.Broadcast()
	}
}

// drainLocked waits until every buffered record is durable, so the log
// on disk and j.recs agree. Caller holds j.mu.
func (j *Journal) drainLocked() error {
	for j.synced < j.pending && j.syncErr == nil {
		j.done.Wait()
	}
	return j.syncErr
}

// Compact checkpoints the directory and truncates the log: it captures a
// snapshot via the installed callback and cuts the log at it (see cut),
// returning once both files are replaced. No-op without a snapshot
// callback.
func (j *Journal) Compact() error {
	j.cutMu.Lock()
	defer j.cutMu.Unlock()
	snap, err := j.capture()
	if snap == nil {
		return err
	}
	return j.cut(snap, false)
}

// capture takes the directory checkpoint stamped with the log position
// it describes, under j.mu with in-flight appends drained. Mutations
// applied to the directory but not yet appended are ahead of the log;
// including them is safe (their append lands after the stamp and replays
// idempotently). nil, nil without a snapshot callback.
func (j *Journal) capture() (*Snapshot, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil, ErrClosed
	}
	if err := j.drainLocked(); err != nil || j.snapFn == nil {
		return nil, err
	}
	snap := j.snapFn()
	snap.Index = j.lastLocked()
	snap.Term = j.termAtLocked(snap.Index)
	return &snap, nil
}

// cut makes snap the journal's checkpoint: the one path by which a
// compaction and a snapshot install land. snapshot.json is written
// outside j.mu, so appends carry on through its marshal and fsyncs; then,
// under j.mu, wal.log is replaced by the records after snap.Index. A
// compaction keeps the records it folded in memory as the retained tail;
// an install, whose snapshot comes from another history, drops the whole
// log. Caller holds cutMu; a cut that has begun finishes even if Close
// comes meanwhile, since Close waits for cutMu before closing the log.
func (j *Journal) cut(snap *Snapshot, install bool) error {
	j.mu.Lock()
	closed := j.closed
	j.mu.Unlock()
	if closed {
		return ErrClosed
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("journal: marshal snapshot: %w", err)
	}
	f, err := j.replace(snapName, data)
	if err != nil {
		return err
	}
	f.Close()

	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.drainLocked(); err != nil {
		return err
	}
	floor, floorTerm, recs := j.base, j.termAtLocked(j.base), j.recs[j.base-j.floor:]
	if install {
		floor, floorTerm, recs = snap.Index, snap.Term, nil
	}
	live := recs[snap.Index-floor:]
	if err := j.replaceWALLocked(snap.Index, snap.Term, live); err != nil {
		return err
	}
	j.floor, j.floorTerm, j.recs, j.base = floor, floorTerm, recs, snap.Index
	j.appended = len(live)
	if !install {
		j.stats.Compactions.Add(1)
	}
	return nil
}

// replaceWALLocked swaps wal.log for a log holding live behind a head
// frame naming base, and moves appends onto it. A failure poisons the
// journal like a failed fsync: appends stop until a reopen, which finds
// the old log or the new one. Caller holds j.mu with the group commit
// drained.
func (j *Journal) replaceWALLocked(base, term uint64, live []Record) error {
	buf, err := appendFrame(nil, walHead{Base: base, Term: term})
	for i := 0; err == nil && i < len(live); i++ {
		buf, err = appendFrame(buf, &live[i])
	}
	var f *os.File
	if err == nil {
		f, err = j.replace(walName, buf)
	}
	if err != nil {
		j.syncErr = err
		return err
	}
	if j.f != nil {
		j.f.Close()
	}
	j.f = f
	j.w.Reset(f)
	return nil
}

// replace is the one way a journal file is replaced: data goes to a temp
// file in the journal directory, which is fsynced and renamed over name,
// and the directory is fsynced so the rename itself is durable. A crash
// leaves the old file or the new one, never a mix. It returns the new
// file, open and positioned at its end. The temp name starts with a dot,
// so a file-by-file copy of the directory lists it first.
func (j *Journal) replace(name string, data []byte) (*os.File, error) {
	tmp, err := os.CreateTemp(j.dir, "."+name+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, err = tmp.Write(data)
	if err == nil && !j.opts.NoSync {
		err = tmp.Sync()
	}
	if err == nil && j.beforeRename != nil {
		err = j.beforeRename(name)
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(j.dir, name))
	}
	if err == nil && !j.opts.NoSync {
		err = syncDir(j.dir)
	}
	if err != nil {
		tmp.Close()
		return nil, fmt.Errorf("journal: replace %s: %w", name, err)
	}
	return tmp, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Close waits for a running compaction, flushes, syncs, and closes the
// log. Further appends fail with ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	j.work.Signal()
	j.mu.Unlock()
	j.bg.Wait()
	j.cutMu.Lock() // a cut in flight lands before the log closes
	defer j.cutMu.Unlock()
	j.flusherG.Wait()
	j.mu.Lock()
	err, f := j.syncErr, j.f
	j.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// appendFrame is the one frame encoder: it appends v's JSON to buf behind
// its length and CRC.
func appendFrame(buf []byte, v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return buf, fmt.Errorf("journal: marshal: %w", err)
	}
	if len(payload) > maxRecord {
		return buf, ErrRecordTooLarge
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	return append(buf, payload...), nil
}

// scanWAL reads the log's head frame (nil when it has none) and every
// whole record after it, returning the length of the good prefix they
// span. Corruption — short header, absurd length, CRC mismatch,
// undecodable JSON — ends the scan: everything after a torn record is
// unreachable garbage by construction (appends are sequential), so it is
// truncated, never skipped.
func scanWAL(data []byte) (head *walHead, records []Record, good int) {
	for {
		rest := data[good:]
		if len(rest) < headerSize {
			return // clean EOF or torn header
		}
		n := binary.BigEndian.Uint32(rest[0:4])
		if n == 0 || n > maxRecord || uint64(n) > uint64(len(rest)-headerSize) {
			return // length corruption or torn payload
		}
		payload := rest[headerSize : headerSize+int(n)]
		if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(rest[4:8]) {
			return // bit rot or torn write
		}
		if good == 0 {
			var h struct {
				Base *uint64 `json:"wal_base"`
				Term uint64  `json:"wal_term"`
			}
			if json.Unmarshal(payload, &h) == nil && h.Base != nil {
				head = &walHead{Base: *h.Base, Term: h.Term}
				good += headerSize + int(n)
				continue
			}
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return
		}
		records = append(records, rec)
		good += headerSize + int(n)
	}
}

// readSnapshot loads the checkpoint, if any.
func readSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: read snapshot: %w", err)
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("journal: snapshot corrupt: %w", err)
	}
	return &s, nil
}
