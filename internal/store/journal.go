package store

import (
	"errors"
	"fmt"
	"sync"

	"midas"
)

var (
	// ErrInvalid marks a mutation refused before it was logged, such as a
	// KB body that does not parse.
	ErrInvalid = errors.New("invalid mutation")
	// ErrTooLarge marks a mutation whose record would exceed
	// MaxRecordBytes.
	ErrTooLarge = errors.New("record exceeds the WAL record cap")
)

// Journal is the one mutation path of a session: each AddFacts batch,
// KB load and absorb runs validate → log → apply, serialized with the
// others and with snapshots, and apply is what recovery replays. A
// refused or failed mutation leaves the session untouched. A nil Log
// makes the journal memory-only (validate → apply).
type Journal struct {
	sess *midas.Session
	log  *Log
	mu   sync.Mutex // orders log+apply pairs and snapshots
}

// NewJournal returns the mutation path of sess, logging to l.
func NewJournal(sess *midas.Session, l *Log) *Journal {
	return &Journal{sess: sess, log: l}
}

// Log returns the journal's log, nil when memory-only.
func (j *Journal) Log() *Log { return j.log }

// AddFacts adds a batch of facts and returns how many it added.
func (j *Journal) AddFacts(facts []midas.Fact) (int, error) {
	return j.commit(&mutation{op: opFacts, facts: facts})
}

// LoadKB bulk-loads a KB body in format ("" or "tsv", "binary",
// "ntriples") and returns the number of new triples. The body must
// parse to the end before anything is logged or applied.
func (j *Journal) LoadKB(format string, body []byte) (int, error) {
	return j.commit(&mutation{op: opKB, format: format, body: body})
}

// Absorb absorbs slices into the KB and returns the number of new
// triples.
func (j *Journal) Absorb(slices []midas.Slice) (int, error) {
	return j.commit(&mutation{op: opAbsorb, slices: slices})
}

// Snapshot compacts the log at the session's current state.
func (j *Journal) Snapshot() error {
	if j.log == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Snapshot(j.sess)
}

// commit runs validate → log → apply, then compacts a log past the
// snapshot threshold; that snapshot's failure is only logged, since the
// mutation is already durable.
func (j *Journal) commit(m *mutation) (int, error) {
	if err := m.validate(); err != nil {
		return 0, fmt.Errorf("%w: %w", ErrInvalid, err)
	}
	var payload []byte
	if j.log != nil {
		if payload = m.encode(); int64(len(payload)) > maxRecordBytes {
			return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.log != nil {
		if err := j.log.append(payload); err != nil {
			return 0, err
		}
	}
	added, err := m.apply(j.sess)
	if err == nil && j.log != nil && j.log.NeedsSnapshot() {
		if serr := j.log.Snapshot(j.sess); serr != nil {
			j.log.st.logger().Warn("snapshot failed", "session", j.log.name, "err", serr)
		}
	}
	return added, err
}
