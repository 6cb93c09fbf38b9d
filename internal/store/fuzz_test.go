package store

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"midas"
	"midas/internal/obs"
)

// FuzzWALRecords drives the WAL frame scanner and mutation decoder with
// arbitrary bytes — the exact code path recovery trusts a crash-torn
// segment to. Properties: no panic and no runaway allocation on any
// input, scanning is deterministic, the valid-prefix count matches the
// decoder callback count, and every decoded mutation re-encodes into a
// frame the scanner accepts.
func FuzzWALRecords(f *testing.F) {
	facts := []midas.Fact{
		{Subject: "alpha entity", Predicate: "kind", Object: "alpha", Confidence: 0.9, URL: "http://a.example.com/p1"},
		{Subject: "alpha entity", Predicate: "id", Object: "a-1", Confidence: 0.5, URL: "http://a.example.com/p1"},
	}
	var seg bytes.Buffer
	for _, m := range []mutation{
		{op: opCreate, name: "s1", options: []byte(`{"workers":2}`)},
		{op: opFacts, facts: facts},
		{op: opKB, format: "tsv", body: []byte("a\tp\tb\n")},
		{op: opAbsorb, slices: []midas.Slice{{Source: "a.example.com", Entities: []string{"alpha entity"}}}},
	} {
		seg.Write(frameRecord(m.encode()))
	}
	f.Add(seg.Bytes())
	f.Add(seg.Bytes()[:seg.Len()-3]) // torn tail
	f.Add(frameRecord([]byte{opFacts}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // huge declared length

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // length cap: frames past 1 MiB add nothing
		}
		decoded := 0
		n, clean, err := scanRecords(bytes.NewReader(data), func(payload []byte) error {
			m, derr := decodeMutation(payload)
			if derr != nil {
				return nil // checksummed garbage payload: rejected, never panics
			}
			decoded++
			// A decoded mutation must survive re-encoding: its frame is
			// exactly what a live server would have written.
			rn, rclean, rerr := scanRecords(bytes.NewReader(frameRecord(m.encode())), func(p []byte) error {
				_, derr := decodeMutation(p)
				return derr
			})
			if rn != 1 || !rclean || rerr != nil {
				t.Fatalf("re-encoded op %d does not re-scan: n=%d clean=%v err=%v", m.op, rn, rclean, rerr)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("callback error escaped: %v", err)
		}
		if decoded > n {
			t.Fatalf("decoded %d mutations from %d valid frames", decoded, n)
		}
		// Determinism: a second scan of the same bytes agrees exactly.
		n2, clean2, _ := scanRecords(bytes.NewReader(data), func([]byte) error { return nil })
		if n2 != n || clean2 != clean {
			t.Fatalf("rescan diverged: (%d,%v) then (%d,%v)", n, clean, n2, clean2)
		}
	})
}

// FuzzJournalKB drives arbitrary KB bodies, in every format, through a
// durable Journal. Property: a refused load is ErrInvalid and leaves
// the session fingerprint and the WAL byte for byte as they were; an
// accepted load is logged so that replaying the segment onto a fresh
// session reproduces the live fingerprint.
func FuzzJournalKB(f *testing.F) {
	var bin bytes.Buffer
	k := midas.NewKB()
	k.Add("alpha entity", "kind", "alpha")
	k.Add("b", "q", "c")
	if err := k.SaveBinary(&bin); err != nil {
		f.Fatal(err)
	}
	f.Add(byte(0), []byte("alpha entity\tkind\talpha\nb\tq\tc\n"))
	f.Add(byte(0), []byte("alpha entity\tkind\talpha\nbroken line\n"))
	f.Add(byte(1), bin.Bytes())
	f.Add(byte(1), bin.Bytes()[:bin.Len()-1])
	f.Add(byte(2), []byte("<http://a/x> <http://a/kind> \"alpha\" .\n"))
	f.Add(byte(2), []byte("<http://a/x> <http://a/kind>\n"))
	formats := []string{"tsv", "binary", "ntriples"}
	seed := []midas.Fact{
		{Subject: "alpha entity", Predicate: "kind", Object: "alpha", Confidence: 0.9, URL: "http://a.example.com/p1"},
		{Subject: "b", Predicate: "q", Object: "d", Confidence: 1, URL: "http://a.example.com/p2"},
	}

	f.Fuzz(func(t *testing.T, format byte, body []byte) {
		if len(body) > 1<<16 {
			return
		}
		dir := t.TempDir()
		st, err := Open(Options{Dir: dir, Fsync: PolicyNone, Registry: obs.New()})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		l, err := st.Create("s1", nil)
		if err != nil {
			t.Fatal(err)
		}
		sess := midas.NewSession(nil, nil)
		j := NewJournal(sess, l)
		if _, err := j.AddFacts(seed); err != nil {
			t.Fatal(err)
		}
		seg := filepath.Join(dir, "sessions", "s1", segmentName(1))
		fp, wal := sess.Fingerprint(), fileSize(t, seg)

		if _, err := j.LoadKB(formats[int(format)%len(formats)], body); err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("refused load is not ErrInvalid: %v", err)
			}
			if got := sess.Fingerprint(); got != fp {
				t.Fatalf("refused load moved the fingerprint: %016x, was %016x", got, fp)
			}
			if got := fileSize(t, seg); got != wal {
				t.Fatalf("refused load wrote the WAL: %d bytes, was %d", got, wal)
			}
			return
		}
		var replayed *midas.Session
		var options []byte
		haveCreate := false
		n, clean, err := st.replaySegment(filepath.Dir(seg), 1, &replayed, &options, &haveCreate, decodeNil)
		if err != nil || !clean || n != 3 {
			t.Fatalf("replay: %d records, clean=%v, err=%v", n, clean, err)
		}
		if got, want := replayed.Fingerprint(), sess.Fingerprint(); got != want {
			t.Fatalf("replayed fingerprint %016x, live %016x", got, want)
		}
	})
}
