// Differential proof of the durability subsystem: a session recovered
// from any crash point — every WAL record boundary, torn mid-record
// tails, mid-snapshot and mid-compaction windows — must be
// fingerprint-identical to the live session at the last acknowledged
// mutation, and discovery on the recovered session must return the same
// slices, profit for profit.
package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"midas"
	"midas/internal/datagen"
	"midas/internal/obs"
	"midas/internal/testutil"
)

// op is one scripted mutation: committed through a Journal on the live
// side, applied straight to a session by the oracle.
type op struct {
	facts  []midas.Fact
	format string // KB load when non-empty
	body   []byte
	slices []midas.Slice
}

func (o op) apply(sess *midas.Session) {
	switch {
	case o.format != "":
		if _, err := sess.KB().LoadTSV(bytes.NewReader(o.body)); err != nil {
			panic(err)
		}
	case o.slices != nil:
		for _, sl := range o.slices {
			sess.Absorb(sl)
		}
	default:
		sess.AddFacts(o.facts...)
	}
}

func (o op) commit(j *Journal) error {
	var err error
	switch {
	case o.format != "":
		_, err = j.LoadKB(o.format, o.body)
	case o.slices != nil:
		_, err = j.Absorb(o.slices)
	default:
		_, err = j.AddFacts(o.facts)
	}
	return err
}

func (o op) mustCommit(t *testing.T, j *Journal) {
	t.Helper()
	if err := o.commit(j); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

// buildScript generates a deterministic mutation stream covering every
// op type: fact batches from a synthetic world, a KB bulk load, and an
// absorb of a genuinely discovered slice.
func buildScript(t *testing.T) []op {
	t.Helper()
	world := datagen.ReVerbSlim(datagen.SlimParams{Domains: 6, GoodDomains: 3, Seed: 7})
	var facts []midas.Fact
	for _, e := range world.Corpus.Facts {
		s, p, o := world.Corpus.Space.StringTriple(e.Triple)
		facts = append(facts, midas.Fact{
			Subject: s, Predicate: p, Object: o,
			Confidence: float64(e.Conf),
			URL:        world.Corpus.URLs.String(e.URL),
		})
	}
	if len(facts) < 40 {
		t.Fatalf("world too small: %d facts", len(facts))
	}
	half := len(facts) / 2
	chunk := half/3 + 1
	var ops []op
	for i := 0; i < half; i += chunk {
		end := i + chunk
		if end > half {
			end = half
		}
		ops = append(ops, op{facts: facts[i:end]})
	}
	// A KB bulk load by content, mid-stream.
	var tsv bytes.Buffer
	for _, f := range facts[:8] {
		fmt.Fprintf(&tsv, "%s\t%s\t%s\n", f.Subject, f.Predicate, f.Object)
	}
	ops = append(ops, op{format: "tsv", body: tsv.Bytes()})
	// An absorb of a real discovered slice at this point in the stream.
	probe := midas.NewSession(nil, nil)
	for _, o := range ops {
		o.apply(probe)
	}
	res, err := probe.DiscoverContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Slices) == 0 {
		t.Fatal("probe discovery found no slices")
	}
	sl := res.Slices[0]
	ops = append(ops, op{slices: []midas.Slice{sl}})
	for i := half; i < len(facts); i += chunk {
		end := i + chunk
		if end > len(facts) {
			end = len(facts)
		}
		ops = append(ops, op{facts: facts[i:end]})
	}
	return ops
}

// oracle builds a fresh session that applied ops[:n] — the
// never-crashed reference.
func oracle(ops []op, n int) *midas.Session {
	sess := midas.NewSession(nil, nil)
	for _, o := range ops[:n] {
		o.apply(sess)
	}
	return sess
}

func decodeNil([]byte) (*midas.Options, error) { return nil, nil }

func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		out := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(out, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func recoverDir(t *testing.T, dir string) (*Store, *Recovery) {
	t.Helper()
	st, err := Open(Options{Dir: dir, Fsync: PolicyNone})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	rec, err := st.Recover(context.Background(), decodeNil)
	if err != nil {
		t.Fatal(err)
	}
	return st, rec
}

// sameDiscovery asserts two sessions produce identical discovery
// results, slice for slice, profits included.
func sameDiscovery(t *testing.T, label string, a, b *midas.Session) {
	t.Helper()
	ra, err := a.DiscoverContext(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	rb, err := b.DiscoverContext(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !reflect.DeepEqual(ra.Slices, rb.Slices) {
		t.Fatalf("%s: discovery diverged\noracle:    %+v\nrecovered: %+v", label, ra.Slices, rb.Slices)
	}
}

// driveStore opens a store at dir, creates session "s1", applies+logs
// every op, and returns the live session, the log, and the byte offset
// of every record boundary in segment 1 (boundary b = state after the
// create record and ops[:b-1]; boundary 0 is the segment header alone).
func driveStore(t *testing.T, dir string) (*Store, *midas.Session, *Log, []op, []int64, []uint64) {
	t.Helper()
	st, err := Open(Options{Dir: dir, Fsync: PolicyNone})
	if err != nil {
		t.Fatal(err)
	}
	live := midas.NewSession(nil, nil)
	l, err := st.Create("s1", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	j := NewJournal(live, l)
	seg := filepath.Join(dir, "sessions", "s1", segmentName(1))
	headerSize := int64(len(walMagic) + 1) // 4-byte magic + uvarint(1)
	ops := buildScript(t)
	boundaries := []int64{headerSize, fileSize(t, seg)}
	fps := []uint64{live.Fingerprint()}
	for _, o := range ops {
		o.mustCommit(t, j)
		boundaries = append(boundaries, fileSize(t, seg))
		fps = append(fps, live.Fingerprint())
	}
	return st, live, l, ops, boundaries, fps
}

// TestRecoverAtEveryRecordBoundary is the core differential proof:
// truncate the WAL at every record boundary and at torn mid-record
// offsets, recover, and require the recovered session to equal the
// oracle that applied exactly the surviving prefix.
func TestRecoverAtEveryRecordBoundary(t *testing.T) {
	dir := t.TempDir()
	st, live, _, ops, boundaries, fps := driveStore(t, dir)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_ = live

	nB := len(boundaries)
	for b := 0; b < nB; b++ {
		// Torn offsets probe inside the next record's frame.
		cuts := []int64{boundaries[b]}
		if b+1 < nB {
			next := boundaries[b+1]
			cuts = append(cuts, boundaries[b]+1, (boundaries[b]+next)/2, next-1)
		}
		for ci, cut := range cuts {
			if ci > 0 && cut <= boundaries[b] {
				continue
			}
			label := fmt.Sprintf("boundary %d cut %d", b, cut)
			cp := copyDir(t, dir)
			seg := filepath.Join(cp, "sessions", "s1", segmentName(1))
			if err := os.Truncate(seg, cut); err != nil {
				t.Fatal(err)
			}
			_, rec := recoverDir(t, cp)
			if b == 0 {
				// The create record itself is gone or torn: the creation
				// was never acknowledged, so the session must be dropped.
				if len(rec.Sessions) != 0 || len(rec.Quarantined) != 0 || len(rec.Dropped) != 1 {
					t.Fatalf("%s: want 1 dropped, got %+v", label, rec)
				}
				continue
			}
			if len(rec.Sessions) != 1 || len(rec.Quarantined) != 0 {
				t.Fatalf("%s: want 1 session, got %d (quarantined %d)",
					label, len(rec.Sessions), len(rec.Quarantined))
			}
			r := rec.Sessions[0]
			if r.Fingerprint != fps[b-1] {
				t.Fatalf("%s: fingerprint %016x, want %016x", label, r.Fingerprint, fps[b-1])
			}
			if ci > 0 && !r.TornTail {
				t.Errorf("%s: mid-record cut not reported as torn tail", label)
			}
		}
	}

	// Full-depth slice comparison at a mid boundary and the final one.
	for _, b := range []int{nB / 2, nB - 1} {
		if b < 1 {
			continue
		}
		cp := copyDir(t, dir)
		seg := filepath.Join(cp, "sessions", "s1", segmentName(1))
		if err := os.Truncate(seg, boundaries[b]); err != nil {
			t.Fatal(err)
		}
		_, rec := recoverDir(t, cp)
		if len(rec.Sessions) != 1 {
			t.Fatalf("boundary %d: want 1 session", b)
		}
		sameDiscovery(t, fmt.Sprintf("boundary %d", b), oracle(ops, b-1), rec.Sessions[0].Session)
	}
}

// TestRecoverThenContinue proves the recovered log is live: recover at
// a mid boundary, replay the remaining script against the recovered
// session and log, then recover again and compare with the
// never-crashed oracle.
func TestRecoverThenContinue(t *testing.T) {
	dir := t.TempDir()
	st, _, _, ops, boundaries, _ := driveStore(t, dir)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	b := len(boundaries) / 2 // ops[:b-1] survived
	cp := copyDir(t, dir)
	if err := os.Truncate(filepath.Join(cp, "sessions", "s1", segmentName(1)), boundaries[b]); err != nil {
		t.Fatal(err)
	}
	st2, rec := recoverDir(t, cp)
	if len(rec.Sessions) != 1 {
		t.Fatalf("want 1 session, got %+v", rec)
	}
	r := rec.Sessions[0]
	j := NewJournal(r.Session, r.Log)
	for _, o := range ops[b-1:] {
		o.mustCommit(t, j)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec2 := recoverDir(t, cp)
	if len(rec2.Sessions) != 1 {
		t.Fatalf("second recovery: want 1 session, got %+v", rec2)
	}
	full := oracle(ops, len(ops))
	if got, want := rec2.Sessions[0].Fingerprint, full.Fingerprint(); got != want {
		t.Fatalf("fingerprint after continue %016x, want %016x", got, want)
	}
	sameDiscovery(t, "continue", full, rec2.Sessions[0].Session)
}

// TestSnapshotCompaction: a snapshot mid-stream compacts the log, and
// recovery from snapshot + replay equals the oracle; crash windows
// inside the snapshot protocol (stray tmp, new segment without the
// rename, stale superseded files) all recover.
func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Fsync: PolicyNone})
	if err != nil {
		t.Fatal(err)
	}
	live := midas.NewSession(nil, nil)
	l, err := st.Create("s1", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	j := NewJournal(live, l)
	ops := buildScript(t)
	half := len(ops) / 2
	for _, o := range ops[:half] {
		o.mustCommit(t, j)
	}
	preSnap := copyDir(t, dir)
	if err := l.Snapshot(live); err != nil {
		t.Fatal(err)
	}
	sdir := filepath.Join(dir, "sessions", "s1")
	if _, err := os.Stat(filepath.Join(sdir, segmentName(1))); !os.IsNotExist(err) {
		t.Error("superseded segment 1 not deleted")
	}
	if _, err := os.Stat(filepath.Join(sdir, snapshotName(2))); err != nil {
		t.Fatalf("snapshot missing: %v", err)
	}
	for _, o := range ops[half:] {
		o.mustCommit(t, j)
	}
	wantFP := live.Fingerprint()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(t *testing.T, dir string, wantReplayed int) *Recovery {
		t.Helper()
		_, rec := recoverDir(t, dir)
		if len(rec.Sessions) != 1 || len(rec.Quarantined) != 0 {
			t.Fatalf("recovery: %+v", rec)
		}
		if got := rec.Sessions[0].Fingerprint; got != wantFP {
			t.Fatalf("fingerprint %016x, want %016x", got, wantFP)
		}
		if wantReplayed >= 0 && rec.Sessions[0].Replayed != wantReplayed {
			t.Fatalf("replayed %d, want %d", rec.Sessions[0].Replayed, wantReplayed)
		}
		return rec
	}

	t.Run("clean", func(t *testing.T) {
		cp := copyDir(t, dir)
		rec := check(t, cp, len(ops)-half)
		sameDiscovery(t, "snapshot", oracle(ops, len(ops)), rec.Sessions[0].Session)
	})

	t.Run("stray-tmp", func(t *testing.T) {
		// Crash before the snapshot rename: a garbage .tmp lies around.
		cp := copyDir(t, dir)
		tmp := filepath.Join(cp, "sessions", "s1", snapshotName(3)+".tmp")
		if err := os.WriteFile(tmp, []byte("partial snapshot junk"), 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, cp, len(ops)-half)
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Error("stray snapshot tmp survived recovery compaction")
		}
	})

	t.Run("segment-without-snapshot", func(t *testing.T) {
		// Crash after creating the next segment but before the snapshot
		// rename: the extra empty segment replays as nothing.
		cp := copyDir(t, dir)
		f, err := os.Create(filepath.Join(cp, "sessions", "s1", segmentName(3)))
		if err != nil {
			t.Fatal(err)
		}
		if err := writeSegmentHeader(f, 3); err != nil {
			t.Fatal(err)
		}
		f.Close()
		check(t, cp, len(ops)-half)
	})

	t.Run("stale-superseded-files", func(t *testing.T) {
		// Crash after the rename but before the superseded files are
		// deleted: old snapshot-less segment 1 coexists with snap-2.
		cp := copyDir(t, preSnap)
		for _, name := range []string{snapshotName(2), segmentName(2)} {
			b, err := os.ReadFile(filepath.Join(dir, "sessions", "s1", name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(cp, "sessions", "s1", name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rec := check(t, cp, -1)
		if _, err := os.Stat(filepath.Join(cp, "sessions", "s1", segmentName(1))); !os.IsNotExist(err) {
			t.Error("stale segment 1 survived recovery compaction")
		}
		_ = rec
	})
}

// TestQuarantine: a snapshot whose stamp does not match the restored
// session must quarantine the session, not serve or delete it.
func TestQuarantine(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Fsync: PolicyNone})
	if err != nil {
		t.Fatal(err)
	}
	live := midas.NewSession(nil, nil)
	l, err := st.Create("s1", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	j := NewJournal(live, l)
	ops := buildScript(t)
	for _, o := range ops[:2] {
		o.mustCommit(t, j)
	}
	if err := l.Snapshot(live); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Tamper with the fingerprint stamp but keep the frame valid: the
	// file parses, the state decodes, and only the recovery invariant
	// (restored Fingerprint() == stamp) can catch it.
	snap := filepath.Join(dir, "sessions", "s1", snapshotName(2))
	b, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	var payload []byte
	if n, clean, _ := scanRecords(bytes.NewReader(b[len(snapMagic):]), func(p []byte) error {
		payload = append([]byte(nil), p...)
		return nil
	}); n != 1 || !clean {
		t.Fatal("snapshot not one clean record")
	}
	// Payload layout: name, options, fp uvarint, epoch, state. Decode
	// far enough to find the fp bytes and rewrite them.
	tampered := tamperFingerprint(t, payload)
	var out bytes.Buffer
	out.WriteString(snapMagic)
	out.Write(frameRecord(tampered))
	if err := os.WriteFile(snap, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	stDir := dir
	_, rec := recoverDir(t, stDir)
	if len(rec.Sessions) != 0 || len(rec.Quarantined) != 1 {
		t.Fatalf("want 1 quarantined, got %+v", rec)
	}
	q := rec.Quarantined[0]
	if q.Name != "s1" || !strings.Contains(q.Err.Error(), "fingerprint mismatch") {
		t.Fatalf("quarantine record: %+v", q)
	}
	if _, err := os.Stat(filepath.Join(dir, "sessions", "s1")); !os.IsNotExist(err) {
		t.Error("quarantined session still under sessions/")
	}
	if _, err := os.Stat(q.Dir); err != nil {
		t.Errorf("quarantined files not preserved: %v", err)
	}
}

// tamperFingerprint rewrites the fp stamp inside a snapshot payload,
// leaving everything else intact.
func tamperFingerprint(t *testing.T, payload []byte) []byte {
	t.Helper()
	r := bytes.NewReader(payload)
	skipBytes := func() { // length-prefixed field
		n, err := readUvarint(r)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Seek(int64(n), io.SeekCurrent); err != nil {
			t.Fatal(err)
		}
	}
	skipBytes() // name
	skipBytes() // options
	fpStart := len(payload) - r.Len()
	fp, err := readUvarint(r)
	if err != nil {
		t.Fatal(err)
	}
	fpEnd := len(payload) - r.Len()
	var out bytes.Buffer
	out.Write(payload[:fpStart])
	writeUvarint(&out, fp^0xdeadbeef)
	out.Write(payload[fpEnd:])
	return out.Bytes()
}

// TestDeleteTombstone: delete removes the session's files; a crash that
// leaves the directory in trash/ must not resurrect the session.
func TestDeleteTombstone(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Fsync: PolicyNone})
	if err != nil {
		t.Fatal(err)
	}
	l1, err := st.Create("dead", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Create("alive", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := l1.AppendFacts([]midas.Fact{{Subject: "a", Predicate: "b", Object: "c", URL: "http://x/", Confidence: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := l1.Delete(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "sessions", "dead")); !os.IsNotExist(err) {
		t.Fatal("deleted session dir still present")
	}
	if err := l1.AppendFacts(nil); err != ErrClosed {
		t.Fatalf("append after delete: %v, want ErrClosed", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash mid-delete: the rename into trash happened, the RemoveAll
	// did not. Recovery must empty the trash, not resurrect.
	src := filepath.Join(dir, "sessions", "alive")
	if err := os.MkdirAll(filepath.Join(dir, "trash"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(src, filepath.Join(dir, "trash", "alive-12345")); err != nil {
		t.Fatal(err)
	}
	_, rec := recoverDir(t, dir)
	if len(rec.Sessions) != 0 || len(rec.Dropped) != 0 || len(rec.Quarantined) != 0 {
		t.Fatalf("tombstoned session resurrected: %+v", rec)
	}
	if _, err := os.Stat(filepath.Join(dir, "trash")); !os.IsNotExist(err) {
		t.Error("trash not emptied by recovery")
	}
}

// TestKill: the in-process SIGKILL freezes the store — appends fail
// with ErrKilled, nothing flushes — and everything acked before the
// kill recovers.
func TestKill(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	live := midas.NewSession(nil, nil)
	l, err := st.Create("s1", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	j := NewJournal(live, l)
	ops := buildScript(t)
	for _, o := range ops[:3] {
		o.mustCommit(t, j)
	}
	st.Kill()
	if err := l.AppendFacts(ops[3].facts); err != ErrKilled {
		t.Fatalf("append after kill: %v, want ErrKilled", err)
	}
	if _, err := st.Create("s2", nil); err != ErrClosed {
		t.Fatalf("create after kill: %v, want ErrClosed", err)
	}
	st.Kill() // idempotent

	_, rec := recoverDir(t, dir)
	if len(rec.Sessions) != 1 {
		t.Fatalf("recovery after kill: %+v", rec)
	}
	if got, want := rec.Sessions[0].Fingerprint, live.Fingerprint(); got != want {
		t.Fatalf("fingerprint %016x, want %016x", got, want)
	}
}

// TestCreateKillRace: a Create in flight when Kill lands must not leak
// a live log — either the create loses (ErrClosed) or its log is taken
// down with the rest. The regression this pins surfaced as a goroutine
// leak in the soak harness's restart mode.
func TestCreateKillRace(t *testing.T) {
	before := testutil.Goroutines()
	for round := 0; round < 50; round++ {
		st, err := Open(Options{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan *Log, 8)
		for i := 0; i < 4; i++ {
			go func(i int) {
				l, err := st.Create(fmt.Sprintf("s%d", i), nil)
				if err != nil {
					l = nil
				}
				done <- l
			}(i)
		}
		st.Kill()
		for i := 0; i < 4; i++ {
			if l := <-done; l != nil {
				// A create that won the race: its log must still die
				// with the store, not accept post-kill appends.
				if err := l.AppendFacts(nil); err == nil {
					t.Fatal("append succeeded on a killed store's log")
				}
			}
		}
	}
	if leaks := testutil.Leaked(before, 5*time.Second); len(leaks) > 0 {
		t.Fatalf("goroutines leaked: %v", leaks)
	}
}

// TestJournalRefusals: a mutation the journal refuses — invalid, over
// the record cap, or against a dead log — must leave the session and
// the WAL exactly as they were, and recovery must return the state of
// the last accepted mutation.
func TestJournalRefusals(t *testing.T) {
	ops := buildScript(t)
	good := []byte("alpha\tkind\tthing\nbeta\tkind\tthing\n")
	for _, tc := range []struct {
		name   string
		format string
		body   []byte
		cap    int64                  // record cap during the load; 0 keeps the default
		before func(*Store, *Journal) // runs just before the load
		want   error
	}{
		{name: "malformed-last-line", format: "tsv", body: []byte("alpha\tkind\tthing\nbroken line\n"), want: ErrInvalid},
		{name: "unknown-format", format: "xml", body: good, want: ErrInvalid},
		{name: "over-record-cap", format: "tsv", body: good, cap: int64(len(good)), want: ErrTooLarge},
		{name: "closed-log", format: "tsv", body: good, before: func(_ *Store, j *Journal) { j.Log().Close() }, want: ErrClosed},
		{name: "killed-store", format: "tsv", body: good, before: func(st *Store, _ *Journal) { st.Kill() }, want: ErrKilled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(Options{Dir: dir, Fsync: PolicyNone})
			if err != nil {
				t.Fatal(err)
			}
			live := midas.NewSession(nil, nil)
			l, err := st.Create("s1", []byte(`{}`))
			if err != nil {
				t.Fatal(err)
			}
			j := NewJournal(live, l)
			for _, o := range ops[:2] {
				o.mustCommit(t, j)
			}
			seg := filepath.Join(dir, "sessions", "s1", segmentName(1))
			fp, kbSize, wal := live.Fingerprint(), live.KB().Size(), fileSize(t, seg)
			if tc.before != nil {
				tc.before(st, j)
			}
			if tc.cap > 0 {
				maxRecordBytes = tc.cap
			}
			_, err = j.LoadKB(tc.format, tc.body)
			maxRecordBytes = MaxRecordBytes
			if !errors.Is(err, tc.want) {
				t.Fatalf("LoadKB error %v, want %v", err, tc.want)
			}
			if live.Fingerprint() != fp || live.KB().Size() != kbSize || fileSize(t, seg) != wal {
				t.Fatalf("refused load changed state: fingerprint %016x (was %016x), KB %d (was %d), WAL %d bytes (was %d)",
					live.Fingerprint(), fp, live.KB().Size(), kbSize, fileSize(t, seg), wal)
			}
			st.Close()
			_, rec := recoverDir(t, dir)
			if len(rec.Sessions) != 1 || rec.Sessions[0].Fingerprint != fp {
				t.Fatalf("recovery after refusal: %+v, want fingerprint %016x", rec, fp)
			}
		})
	}
}

// shortWriteFile writes half of the next frame and fails, once — a
// short write on ENOSPC — then passes writes through.
type shortWriteFile struct {
	logFile
	done bool
}

func (f *shortWriteFile) Write(p []byte) (int, error) {
	if f.done {
		return f.logFile.Write(p)
	}
	f.done = true
	n, _ := f.logFile.Write(p[:len(p)/2])
	return n, io.ErrShortWrite
}

// TestShortWriteKillsLog: after a failed write leaves half a frame in
// the segment, every later append must fail. An append acked after the
// torn frame would be lost, since recovery stops at the first torn
// frame.
func TestShortWriteKillsLog(t *testing.T) {
	ops := buildScript(t)
	for _, policy := range []Policy{PolicyNone, PolicyAlways} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(Options{Dir: dir, Fsync: policy})
			if err != nil {
				t.Fatal(err)
			}
			live := midas.NewSession(nil, nil)
			l, err := st.Create("s1", []byte(`{}`))
			if err != nil {
				t.Fatal(err)
			}
			j := NewJournal(live, l)
			ops[0].mustCommit(t, j)
			acked := live.Fingerprint()
			l.mu.Lock()
			l.f = &shortWriteFile{logFile: l.f}
			l.mu.Unlock()
			if err := ops[1].commit(j); !errors.Is(err, io.ErrShortWrite) {
				t.Fatalf("short write: %v, want io.ErrShortWrite", err)
			}
			if err := ops[2].commit(j); err == nil {
				t.Fatal("append after a failed write was acked")
			}
			if l.NeedsSnapshot() || l.Snapshot(live) == nil {
				t.Error("a failed log still offers snapshots")
			}
			if live.Fingerprint() != acked {
				t.Fatal("failed appends changed the session")
			}
			st.Close()
			_, rec := recoverDir(t, dir)
			if len(rec.Quarantined) == 0 && (len(rec.Sessions) != 1 || rec.Sessions[0].Fingerprint != acked) {
				t.Fatalf("recovery lost an acked record: %+v, want fingerprint %016x", rec, acked)
			}
		})
	}
}

// failSyncFile passes writes through and fails every fsync with EIO.
type failSyncFile struct{ logFile }

func (failSyncFile) Sync() error { return syscall.EIO }

// TestSyncFailureKillsLog: on the default policy an fsync error fails
// the append that hit it, leaves the session unchanged and kills the
// log, so no later append is acked either. Recovery keeps every acked
// record; the unacked record was written before its fsync failed, so
// it may replay too (non-2xx means unacknowledged, not absent).
func TestSyncFailureKillsLog(t *testing.T) {
	ops := buildScript(t)
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	live := midas.NewSession(nil, nil)
	l, err := st.Create("s1", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	j := NewJournal(live, l)
	ops[0].mustCommit(t, j)
	acked := live.Fingerprint()
	l.mu.Lock()
	l.f = failSyncFile{l.f}
	l.mu.Unlock()
	if err := ops[1].commit(j); !errors.Is(err, syscall.EIO) {
		t.Fatalf("failed fsync: %v, want EIO", err)
	}
	if live.Fingerprint() != acked {
		t.Fatal("an append whose fsync failed changed the session")
	}
	for _, o := range ops[2:4] {
		if err := o.commit(j); !errors.Is(err, syscall.EIO) {
			t.Fatalf("append after a failed fsync: %v, want EIO", err)
		}
	}
	if live.Fingerprint() != acked {
		t.Fatal("appends on a dead log changed the session")
	}
	st.Close()
	_, rec := recoverDir(t, dir)
	if len(rec.Sessions) != 1 {
		t.Fatalf("recovery: %+v", rec)
	}
	if got, unacked := rec.Sessions[0].Fingerprint, oracle(ops, 2).Fingerprint(); got != acked && got != unacked {
		t.Fatalf("recovered fingerprint %016x, want %016x (acked) or %016x (acked + the unacked record)", got, acked, unacked)
	}
}

// callLog records the order of a log file's writes and fsyncs.
type callLog struct {
	logFile
	calls []string
}

func (f *callLog) Write(p []byte) (int, error) {
	f.calls = append(f.calls, "write")
	return f.logFile.Write(p)
}

func (f *callLog) Sync() error {
	f.calls = append(f.calls, "sync")
	return f.logFile.Sync()
}

// TestAckFollowsFsync: on the default policy each acked append wrote its
// frame and then fsynced it before returning, one fsync per record.
func TestAckFollowsFsync(t *testing.T) {
	reg := obs.New()
	st, err := Open(Options{Dir: t.TempDir(), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	l, err := st.Create("s1", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	cl := &callLog{logFile: l.f}
	l.mu.Lock()
	l.f = cl
	l.mu.Unlock()
	j := NewJournal(midas.NewSession(nil, nil), l)
	for i, o := range buildScript(t) {
		cl.calls = nil
		o.mustCommit(t, j)
		if want := []string{"write", "sync"}; !reflect.DeepEqual(cl.calls, want) {
			t.Fatalf("op %d: file calls %v before the ack, want %v", i, cl.calls, want)
		}
	}
	records, fsyncs := reg.Counter("store/records").Value(), reg.Counter("store/fsyncs").Value()
	if records == 0 || records != fsyncs {
		t.Fatalf("store/records %d, store/fsyncs %d: want one fsync per record", records, fsyncs)
	}
}

// TestParsePolicy: "" and the alias "batch" select the inline-fsync
// policy, and unknown names are refused.
func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{"": PolicyAlways, "always": PolicyAlways, "batch": PolicyAlways, "none": PolicyNone} {
		if got, err := ParsePolicy(in); err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Error("ParsePolicy accepted an unknown policy")
	}
	var zero Policy
	if zero != PolicyAlways {
		t.Error("the zero Policy is not the inline-fsync policy")
	}
}

// TestStrayFilesIgnored: files in a session directory that only look
// like segments or snapshots are not the store's. Recovery must neither
// read them (a duplicate segment seq is a false WAL gap; a stray
// snapshot name points at a file that does not exist) nor delete them.
func TestStrayFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	st, live, _, _, _, _ := driveStore(t, dir)
	want := live.Fingerprint()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	sdir := filepath.Join(dir, "sessions", "s1")
	seg, err := os.ReadFile(filepath.Join(sdir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	strays := []string{"wal-00000001 copy.log", "wal-1x.log", "wal-1.log", "snap-00000009 old.snap", "snap-9.snap"}
	for _, name := range strays {
		if err := os.WriteFile(filepath.Join(sdir, name), seg, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, rec := recoverDir(t, dir)
	if len(rec.Sessions) != 1 || len(rec.Quarantined) != 0 {
		t.Fatalf("recovery with stray files: %+v", rec)
	}
	if got := rec.Sessions[0].Fingerprint; got != want {
		t.Fatalf("fingerprint %016x, want %016x", got, want)
	}
	for _, name := range strays {
		if _, err := os.Stat(filepath.Join(sdir, name)); err != nil {
			t.Errorf("stray file %q: %v", name, err)
		}
	}
}

// TestCacheRoundTrip: the persisted result cache survives recovery at
// the stamped fingerprint, and a damaged cache is a miss, never an
// error.
func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Fsync: PolicyNone})
	if err != nil {
		t.Fatal(err)
	}
	live := midas.NewSession(nil, nil)
	l, err := st.Create("s1", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	j := NewJournal(live, l)
	ops := buildScript(t)
	for _, o := range ops {
		o.mustCommit(t, j)
	}
	res, err := live.DiscoverContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	l.SaveCache(res.Fingerprint, res)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	cp := copyDir(t, dir)
	_, rec := recoverDir(t, cp)
	if len(rec.Sessions) != 1 {
		t.Fatalf("recovery: %+v", rec)
	}
	r := rec.Sessions[0]
	if r.CacheFingerprint != res.Fingerprint || r.CacheResult == nil {
		t.Fatalf("cache not restored: fp %016x, want %016x", r.CacheFingerprint, res.Fingerprint)
	}
	if !reflect.DeepEqual(r.CacheResult.Slices, res.Slices) {
		t.Fatalf("cached slices diverged\nwant %+v\ngot  %+v", res.Slices, r.CacheResult.Slices)
	}
	// The restored cache must be live: the recovered session's
	// fingerprint equals the stamp, so a discovery at this state would
	// hit.
	if r.Fingerprint != r.CacheFingerprint {
		t.Fatalf("recovered fp %016x != cache fp %016x", r.Fingerprint, r.CacheFingerprint)
	}

	// Damaged cache: truncate → miss.
	cp2 := copyDir(t, dir)
	cpath := filepath.Join(cp2, "sessions", "s1", cacheName)
	if err := os.Truncate(cpath, fileSize(t, cpath)/2); err != nil {
		t.Fatal(err)
	}
	_, rec2 := recoverDir(t, cp2)
	if len(rec2.Sessions) != 1 {
		t.Fatalf("recovery: %+v", rec2)
	}
	if rec2.Sessions[0].CacheResult != nil {
		t.Error("damaged cache should read as a miss")
	}
}

func readUvarint(r *bytes.Reader) (uint64, error) {
	var v uint64
	var shift uint
	for {
		b, err := r.ReadByte()
		if err != nil {
			return 0, err
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
	}
}

func writeUvarint(w *bytes.Buffer, v uint64) {
	for v >= 0x80 {
		w.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	w.WriteByte(byte(v))
}
