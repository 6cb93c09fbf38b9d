package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"midas"
	"midas/internal/binio"
)

const (
	walMagic   = "MWL1"
	snapMagic  = "MSNP"
	cacheMagic = "MCAC"
	cacheName  = "cache.bin"
)

var (
	// ErrClosed reports an append to a closed (deleted or shut-down) log.
	ErrClosed = errors.New("store: log closed")
	// ErrKilled reports an append after Kill froze the store (the soak
	// harness's in-process SIGKILL).
	ErrKilled = errors.New("store: store killed")
)

func segmentName(seq uint64) string  { return fmt.Sprintf("wal-%08d.log", seq) }
func snapshotName(seq uint64) string { return fmt.Sprintf("snap-%08d.snap", seq) }

// parseSeq returns the sequence number of file if name (segmentName or
// snapshotName) produces exactly that file name. A stray copy such as
// "wal-00000002 copy.log" or a look-alike such as "wal-2.log" is not the
// store's file: recovery ignores it and compaction leaves it alone.
func parseSeq(file string, name func(uint64) string) (uint64, bool) {
	_, rest, _ := strings.Cut(file, "-")
	digits, _, _ := strings.Cut(rest, ".")
	seq, err := strconv.ParseUint(digits, 10, 64)
	if err != nil || name(seq) != file {
		return 0, false
	}
	return seq, true
}

// logFile is what a Log needs of its active segment file; tests
// substitute it to inject write failures.
type logFile interface {
	io.Writer
	Sync() error
	Close() error
}

// Log is the durable state of one session: a write-ahead log of its
// confirmed mutation stream in checksummed frames, segment-rotated by
// compacting snapshots, plus the persisted result cache. Appends are
// expected to be externally serialized against each other and against
// Snapshot (a Journal does this); SaveCache may run concurrently with
// anything.
type Log struct {
	st      *Store
	name    string
	dir     string
	options []byte // create-time options JSON, stamped into snapshots

	mu       sync.Mutex
	f        logFile
	seq      uint64 // active segment
	walBytes int64  // bytes in segments not yet covered by a snapshot
	closed   bool
	frozen   bool

	// failed is the first write or fsync error, and it is sticky: a
	// failed write may leave part of a frame on disk, and a record
	// appended after it would be acked yet unreadable (recovery stops at
	// the first torn frame), so every later append fails with it.
	failed error

	cmu sync.Mutex // serializes cache.bin writes
}

// writeSegmentHeader writes the segment header for seq.
func writeSegmentHeader(f io.Writer, seq uint64) error {
	bw := binio.NewWriter(f)
	bw.Magic(walMagic)
	bw.Uvarint(seq)
	return bw.Flush()
}

// newLog opens a fresh log for a session being created: first segment,
// create record appended and (policy permitting) synced before return.
func (st *Store) newLog(name string, optionsJSON []byte) (*Log, error) {
	dir := filepath.Join(st.sessionsDir(), name)
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{st: st, name: name, dir: dir, options: append([]byte(nil), optionsJSON...), seq: 1}
	f, err := os.OpenFile(filepath.Join(dir, segmentName(1)), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	l.f = f
	if err := writeSegmentHeader(f, 1); err != nil {
		f.Close()
		return nil, err
	}
	create := &mutation{op: opCreate, name: name, options: optionsJSON}
	if err := l.append(create.encode()); err != nil {
		l.Close()
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

// append frames and writes payload and, unless the policy is
// PolicyNone, fsyncs it before returning: an ack always follows the
// fsync of its own record. Callers serialize appends.
func (l *Log) append(payload []byte) error {
	frame := frameRecord(payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.deadLocked(); err != nil {
		return err
	}
	if _, err := l.f.Write(frame); err != nil {
		l.failed = err
		return err
	}
	l.walBytes += int64(len(frame))
	l.st.walTotal.Add(int64(len(frame)))
	l.st.records.Inc()
	if l.st.opts.Fsync == PolicyNone {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.failed = err
		return err
	}
	l.st.noteFsync()
	return nil
}

// deadLocked reports why the log takes no more appends, nil while it
// does.
func (l *Log) deadLocked() error {
	switch {
	case l.frozen:
		return ErrKilled
	case l.closed:
		return ErrClosed
	}
	return l.failed
}

// AppendFacts logs an AddFacts batch.
func (l *Log) AppendFacts(facts []midas.Fact) error {
	return l.append((&mutation{op: opFacts, facts: facts}).encode())
}

// NeedsSnapshot reports whether the un-snapshotted WAL has crossed the
// store's snapshot threshold.
func (l *Log) NeedsSnapshot() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.deadLocked() == nil && l.walBytes >= l.st.opts.SnapshotBytes
}

// Snapshot compacts the log: serialize sess (which must be quiescent
// with respect to mutations and appends — Journal.Snapshot holds the
// journal's lock), stamp its fingerprint and KB epoch, write
// the snapshot with temp-file + rename atomicity, rotate to a fresh
// segment, and delete the files the snapshot supersedes. Every crash
// window recovers: before the rename the old snapshot + segments are
// intact; after it the stale files are ignored and re-deleted.
func (l *Log) Snapshot(sess *midas.Session) error {
	l.mu.Lock()
	if err := l.deadLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	newSeq := l.seq + 1
	l.mu.Unlock()

	fp := sess.Fingerprint()
	epoch := sess.KBEpoch()
	var state bytes.Buffer
	if err := sess.WriteState(&state); err != nil {
		return err
	}
	var payload bytes.Buffer
	bw := binio.NewWriter(&payload)
	bw.String(l.name)
	bw.Bytes(l.options)
	bw.Uvarint(fp)
	bw.Uvarint(epoch)
	bw.Bytes(state.Bytes())
	if err := bw.Flush(); err != nil {
		return err
	}

	tmp := filepath.Join(l.dir, snapshotName(newSeq)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	sw := binio.NewWriter(f)
	sw.Magic(snapMagic)
	if err := sw.Flush(); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(frameRecord(payload.Bytes())); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	// The new segment exists before the snapshot is named: a recovery
	// that sees snap-S can always replay from wal-S.
	nf, err := os.OpenFile(filepath.Join(l.dir, segmentName(newSeq)), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := writeSegmentHeader(nf, newSeq); err != nil {
		nf.Close()
		return err
	}
	if err := nf.Sync(); err != nil {
		nf.Close()
		return err
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, snapshotName(newSeq))); err != nil {
		nf.Close()
		return err
	}
	if err := syncDir(l.dir); err != nil {
		nf.Close()
		return err
	}

	l.mu.Lock()
	if err := l.deadLocked(); err != nil {
		// The log died (freeze or delete) while the snapshot was being
		// written; leave its state files alone and keep the new segment
		// out of play.
		l.mu.Unlock()
		nf.Close()
		return err
	}
	old := l.f
	l.f = nf
	l.seq = newSeq
	l.st.walTotal.Add(-l.walBytes)
	l.walBytes = 0
	l.mu.Unlock()
	if old != nil {
		old.Close()
	}

	l.removeSuperseded(newSeq)
	l.st.noteSnapshot()
	return nil
}

// removeSuperseded deletes segments and snapshots older than keepSeq,
// and stray snapshot temp files. Failures are ignored: recovery skips
// stale files by sequence, and re-deletes.
func (l *Log) removeSuperseded(keepSeq uint64) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(l.dir, name))
			continue
		}
		if seq, ok := parseSeq(name, segmentName); ok && seq < keepSeq {
			os.Remove(filepath.Join(l.dir, name))
		}
		if seq, ok := parseSeq(name, snapshotName); ok && seq < keepSeq {
			os.Remove(filepath.Join(l.dir, name))
		}
	}
}

// cachePayload is the persisted result cache: the session fingerprint
// the result was computed at, plus the result as JSON (float64 values
// round-trip exactly through Go's JSON encoding).
type cachePayload struct {
	Fingerprint uint64        `json:"fingerprint"`
	Result      *midas.Result `json:"result"`
}

// SaveCache persists the session's single-entry result cache with
// write + rename and no fsync: the page cache survives a process kill,
// and after an OS crash a missing or torn cache is merely a cache miss.
func (l *Log) SaveCache(fp uint64, res *midas.Result) {
	l.mu.Lock()
	dead := l.closed || l.frozen
	l.mu.Unlock()
	if dead {
		return
	}
	body, err := json.Marshal(cachePayload{Fingerprint: fp, Result: res})
	if err != nil {
		return
	}
	var buf bytes.Buffer
	buf.WriteString(cacheMagic)
	buf.Write(frameRecord(body))

	l.cmu.Lock()
	defer l.cmu.Unlock()
	tmp := filepath.Join(l.dir, cacheName+".tmp")
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return
	}
	os.Rename(tmp, filepath.Join(l.dir, cacheName))
}

// loadCache reads a persisted result cache; any damage is a miss.
func loadCache(dir string) (uint64, *midas.Result) {
	b, err := os.ReadFile(filepath.Join(dir, cacheName))
	if err != nil || len(b) < 4 || string(b[:4]) != cacheMagic {
		return 0, nil
	}
	var body []byte
	n, clean, _ := scanRecords(bytes.NewReader(b[4:]), func(p []byte) error {
		body = p
		return nil
	})
	if n != 1 || !clean || body == nil {
		return 0, nil
	}
	var cp cachePayload
	if json.Unmarshal(body, &cp) != nil || cp.Result == nil {
		return 0, nil
	}
	return cp.Fingerprint, cp.Result
}

// Close closes the active segment. It needs no final fsync: under
// PolicyAlways every acked record is already synced, and PolicyNone
// promises only what the page cache holds.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed || l.frozen {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	f := l.f
	l.f = nil
	l.mu.Unlock()
	if f != nil {
		return f.Close()
	}
	return nil
}

// freeze is the in-process hard-stop: later appends fail with
// ErrKilled, and files close without flushing beyond what the OS
// already holds — the closest a live process gets to SIGKILL semantics.
func (l *Log) freeze() {
	l.mu.Lock()
	if l.closed || l.frozen {
		l.mu.Unlock()
		return
	}
	l.frozen = true
	f := l.f
	l.f = nil
	l.mu.Unlock()
	if f != nil {
		f.Close()
	}
}

// Delete closes the log and removes the session's files: the directory
// is atomically renamed into the store's trash (the tombstone — a
// half-deleted session can never be half-recovered) and then removed;
// recovery empties any trash a crash left behind.
func (l *Log) Delete() error {
	l.mu.Lock()
	if l.frozen {
		l.mu.Unlock()
		return ErrKilled
	}
	alreadyClosed := l.closed
	l.closed = true
	f := l.f
	l.f = nil
	l.st.walTotal.Add(-l.walBytes)
	l.walBytes = 0
	l.mu.Unlock()
	if f != nil {
		f.Close()
	}
	if alreadyClosed {
		return nil
	}
	l.st.dropLog(l.name)
	trashed, err := l.st.trash(l.dir)
	if err != nil {
		return err
	}
	os.RemoveAll(trashed)
	return nil
}

// segmentSeqs lists the WAL segment sequence numbers in dir, ascending.
func segmentSeqs(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), segmentName); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// snapshotSeqs lists snapshot sequence numbers in dir, ascending.
func snapshotSeqs(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), snapshotName); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// syncDir fsyncs a directory so renames and creates within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
