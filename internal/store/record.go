package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"midas"
	"midas/internal/binio"
)

// WAL record framing: uvarint payload length, payload, 8-byte
// little-endian FNV-1a checksum of the payload. A record is valid only
// if the full frame is present and the checksum matches; anything less
// is a torn tail. Appends are sequential and the frame is written with
// a single Write, so a tear can only occur at the end of a file — the
// scanner stops at the first invalid frame and reports whether the file
// ended cleanly.

// MaxRecordBytes caps a single WAL record (and the snapshot record):
// the journal refuses to log a larger one, and the scanner reads a
// larger declared length as a torn frame, so a corrupt length cannot
// exhaust memory. KB bulk-load bodies are stored verbatim, so the cap
// is generous.
const MaxRecordBytes = 1 << 30

var maxRecordBytes int64 = MaxRecordBytes // the cap in force; tests lower it

// Op types, the first uvarint of every WAL record payload.
const (
	opCreate = 1 // session created: name, options JSON
	opFacts  = 2 // AddFacts batch, dictionary-encoded
	opKB     = 3 // KB bulk load: format tag, body bytes verbatim
	opAbsorb = 4 // Absorb batch: per slice, source + entities
)

func checksum(payload []byte) uint64 {
	h := fnv.New64a()
	h.Write(payload)
	return h.Sum64()
}

// frameRecord wraps payload in the WAL frame.
func frameRecord(payload []byte) []byte {
	var lb [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lb[:], uint64(len(payload)))
	buf := make([]byte, 0, n+len(payload)+8)
	buf = append(buf, lb[:n]...)
	buf = append(buf, payload...)
	var cb [8]byte
	binary.LittleEndian.PutUint64(cb[:], checksum(payload))
	return append(buf, cb[:]...)
}

// scanRecords reads framed records from r, calling fn for each valid
// payload. It returns the number of valid records, whether the stream
// ended cleanly (false = torn tail: a truncated or checksum-failing
// final frame, the expected crash artifact), and the first error from
// fn — which aborts the scan and is distinct from tearing.
func scanRecords(r io.Reader, fn func(payload []byte) error) (n int, clean bool, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	for {
		length, err := binary.ReadUvarint(br)
		if err == io.EOF {
			return n, true, nil
		}
		if err != nil {
			return n, false, nil
		}
		if length > uint64(maxRecordBytes) {
			return n, false, nil
		}
		payload, ok := readFullCapped(br, length)
		if !ok {
			return n, false, nil
		}
		var sum [8]byte
		if _, err := io.ReadFull(br, sum[:]); err != nil {
			return n, false, nil
		}
		if binary.LittleEndian.Uint64(sum[:]) != checksum(payload) {
			return n, false, nil
		}
		if err := fn(payload); err != nil {
			return n, true, err
		}
		n++
	}
}

// readFullCapped reads exactly n bytes from r, growing the buffer in
// bounded chunks as data actually arrives — a corrupt declared length
// can never force a huge allocation the stream cannot back.
func readFullCapped(r io.Reader, n uint64) ([]byte, bool) {
	const chunk = 1 << 16
	buf := make([]byte, 0, min(n, chunk))
	for uint64(len(buf)) < n {
		k := min(n-uint64(len(buf)), chunk)
		off := len(buf)
		buf = append(buf, make([]byte, k)...)
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			return nil, false
		}
	}
	return buf, true
}

// mutation is one decoded WAL operation.
type mutation struct {
	op      int
	name    string // opCreate
	options []byte // opCreate: options JSON, verbatim
	facts   []midas.Fact
	format  string        // opKB: "tsv" | "binary" | "ntriples"
	body    []byte        // opKB
	slices  []midas.Slice // opAbsorb: Source and Entities, all Absorb reads
}

// encode serializes m as a WAL record payload. Facts are
// dictionary-encoded: repeated subjects, predicates, objects, and URLs
// are stored once in a string table, rows reference table indexes.
// Confidence is stored as raw Float64bits — replay must feed AddFacts
// the exact float64 the live handler did, or the interned float32 (and
// with it the session fingerprint) could drift.
func (m *mutation) encode() []byte {
	var buf bytes.Buffer
	bw := binio.NewWriter(&buf)
	bw.Uvarint(uint64(m.op))
	switch m.op {
	case opCreate:
		bw.String(m.name)
		bw.Bytes(m.options)
	case opFacts:
		idx := make(map[string]uint64)
		var table []string
		intern := func(s string) uint64 {
			if i, ok := idx[s]; ok {
				return i
			}
			i := uint64(len(table))
			idx[s] = i
			table = append(table, s)
			return i
		}
		type row struct{ s, p, o, u uint64 }
		rows := make([]row, len(m.facts))
		for i, f := range m.facts {
			rows[i] = row{intern(f.Subject), intern(f.Predicate), intern(f.Object), intern(f.URL)}
		}
		bw.Int(len(table))
		for _, s := range table {
			bw.String(s)
		}
		bw.Int(len(rows))
		for i, r := range rows {
			bw.Uvarint(r.s)
			bw.Uvarint(r.p)
			bw.Uvarint(r.o)
			bw.Uvarint(r.u)
			bw.Uvarint(math.Float64bits(m.facts[i].Confidence))
		}
	case opKB:
		bw.String(m.format)
		bw.Bytes(m.body)
	case opAbsorb:
		bw.Int(len(m.slices))
		for _, sl := range m.slices {
			bw.String(sl.Source)
			bw.Int(len(sl.Entities))
			for _, e := range sl.Entities {
				bw.String(e)
			}
		}
	}
	bw.Flush()
	return buf.Bytes()
}

// decodeMutation decodes one WAL record payload.
func decodeMutation(payload []byte) (*mutation, error) {
	br := binio.NewReader(bytes.NewReader(payload))
	br.MaxBytes = uint64(maxRecordBytes)
	m := &mutation{op: int(br.Uvarint())}
	if err := br.Err(); err != nil {
		return nil, err
	}
	switch m.op {
	case opCreate:
		m.name = br.String()
		m.options = br.Bytes()
	case opFacts:
		nTable := br.Int()
		if err := br.Err(); err != nil {
			return nil, err
		}
		if nTable > len(payload) {
			return nil, fmt.Errorf("%w: facts table count %d exceeds payload", binio.ErrCorrupt, nTable)
		}
		table := make([]string, nTable)
		for i := range table {
			table[i] = br.String()
		}
		nRows := br.Int()
		if err := br.Err(); err != nil {
			return nil, err
		}
		if nRows > len(payload) {
			return nil, fmt.Errorf("%w: facts row count %d exceeds payload", binio.ErrCorrupt, nRows)
		}
		m.facts = make([]midas.Fact, 0, nRows)
		for i := 0; i < nRows; i++ {
			s, p, o, u := br.Uvarint(), br.Uvarint(), br.Uvarint(), br.Uvarint()
			conf := br.Uvarint()
			if err := br.Err(); err != nil {
				return nil, err
			}
			if s >= uint64(nTable) || p >= uint64(nTable) || o >= uint64(nTable) || u >= uint64(nTable) {
				return nil, fmt.Errorf("%w: facts row %d references out-of-range string", binio.ErrCorrupt, i)
			}
			m.facts = append(m.facts, midas.Fact{
				Subject: table[s], Predicate: table[p], Object: table[o],
				URL: table[u], Confidence: math.Float64frombits(conf),
			})
		}
	case opKB:
		m.format = br.String()
		m.body = br.Bytes()
	case opAbsorb:
		nSlices := br.Int()
		if err := br.Err(); err != nil {
			return nil, err
		}
		if nSlices > len(payload) {
			return nil, fmt.Errorf("%w: absorb slice count %d exceeds payload", binio.ErrCorrupt, nSlices)
		}
		m.slices = make([]midas.Slice, 0, nSlices)
		for i := 0; i < nSlices; i++ {
			sl := midas.Slice{Source: br.String()}
			nEnts := br.Int()
			if err := br.Err(); err != nil {
				return nil, err
			}
			if nEnts > len(payload) {
				return nil, fmt.Errorf("%w: absorb slice %d entity count %d exceeds payload", binio.ErrCorrupt, i, nEnts)
			}
			sl.Entities = make([]string, nEnts)
			for k := range sl.Entities {
				sl.Entities[k] = br.String()
			}
			m.slices = append(m.slices, sl)
		}
	default:
		return nil, fmt.Errorf("%w: unknown op %d", binio.ErrCorrupt, m.op)
	}
	if err := br.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// validate proves m will apply before anything is logged. A KB body
// must parse completely; it is loaded into a throwaway KB, so the
// session's interning dictionaries see nothing until apply re-parses it
// in the same order replay will.
func (m *mutation) validate() error {
	if m.op != opKB {
		return nil
	}
	_, err := loadKB(midas.NewKB(), m.format, m.body)
	return err
}

// apply performs m on sess and returns what it added: facts for a
// batch, new KB triples for a KB load or an absorb. The journal applies
// live mutations and recovery replays logged ones through it alone, so
// a replay failure means divergence and the caller quarantines.
func (m *mutation) apply(sess *midas.Session) (int, error) {
	switch m.op {
	case opFacts:
		sess.AddFacts(m.facts...)
		return len(m.facts), nil
	case opKB:
		return loadKB(sess.KB(), m.format, m.body)
	case opAbsorb:
		added := 0
		for _, sl := range m.slices {
			// Only the logged fields reach Absorb, live and on replay.
			added += sess.Absorb(midas.Slice{Source: sl.Source, Entities: sl.Entities})
		}
		return added, nil
	}
	return 0, fmt.Errorf("%w: create record past the head of the log", binio.ErrCorrupt)
}

// loadKB bulk-loads body into k in the given format.
func loadKB(k *midas.KB, format string, body []byte) (int, error) {
	r := bytes.NewReader(body)
	switch format {
	case "", "tsv":
		return k.LoadTSV(r)
	case "binary":
		return k.LoadBinary(r)
	case "ntriples":
		return k.LoadNTriples(r)
	}
	return 0, fmt.Errorf("unknown KB format %q", format)
}
