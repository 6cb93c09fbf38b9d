package main

import (
	"bytes"
	"context"
	"path/filepath"
	"time"

	"midas"
	"midas/internal/obs"
	"midas/internal/store"
)

// mutation is one confirmed change to a served session, in the order
// the server acknowledged it: a facts batch or an absorbed slice.
type mutation struct {
	facts  []midas.Fact
	absorb *apiSlice
}

func (s apiSlice) slice() midas.Slice {
	props := make([]midas.Property, len(s.Properties))
	for i, p := range s.Properties {
		props[i] = midas.Property{Predicate: p.Predicate, Value: p.Value}
	}
	return midas.Slice{
		Source: s.Source, Description: s.Description, Properties: props,
		Entities: s.Entities, Facts: s.Facts, NewFacts: s.NewFacts, Profit: s.Profit,
	}
}

// replaySession rebuilds a session from the KB and the confirmed
// mutations, through the library alone. kb.load spans KB.LoadTSV.
func replaySession(kbTSV []byte, muts []mutation, tr *tracer) (*midas.Session, error) {
	kbm := midas.NewKB()
	if len(kbTSV) > 0 {
		sp := tr.root("kb.load")
		_, err := kbm.LoadTSV(bytes.NewReader(kbTSV))
		sp.end()
		if err != nil {
			return nil, err
		}
	}
	s := midas.NewSession(kbm, nil)
	var pending []midas.Fact
	for _, m := range muts {
		if m.absorb == nil {
			pending = append(pending, m.facts...)
			continue
		}
		s.AddFacts(pending...)
		pending = pending[:0]
		s.Absorb(m.absorb.slice())
	}
	s.AddFacts(pending...)
	return s, nil
}

// fromScratch is the replay oracle: a package-level midas.Discover over
// the replayed session's facts and KB, sharing no incremental state or
// cache with the server.
func fromScratch(kbTSV []byte, muts []mutation) (*midas.Result, uint64, error) {
	s, err := replaySession(kbTSV, muts, nil)
	if err != nil {
		return nil, 0, err
	}
	corpus := midas.NewCorpus(s.KB())
	for _, m := range muts {
		for _, f := range m.facts {
			corpus.Add(f)
		}
	}
	return midas.Discover(corpus, s.KB(), nil), s.Fingerprint(), nil
}

// mirror performs, one call at a time, the library and store calls a
// served request wraps — Log.AppendFacts then Session.AddFacts,
// Session.Fingerprint and Session.DiscoverContext, Session.Absorb — on a
// private session and log, so a traced run can subtract them from the
// HTTP latency.
type mirror struct {
	sess     *midas.Session
	log      *store.Log
	dir      string
	walBytes int64 // WAL bytes compacted away by snapshots so far
	facts    int
}

// mirrorStore opens the private store the mirrors log into, with its
// own registry so its counters stay out of the server's.
func mirrorStore(dir string) (*store.Store, error) {
	return store.Open(store.Options{Dir: dir, Registry: obs.New()})
}

func newMirror(st *store.Store, storeDir, name string, sess *midas.Session) (*mirror, error) {
	l, err := st.Create(name, []byte("null"))
	if err != nil {
		return nil, err
	}
	return &mirror{sess: sess, log: l, dir: filepath.Join(storeDir, "sessions", name)}, nil
}

// addFacts appends then applies one batch, as the facts handler does,
// snapshotting when the log outgrows the store's threshold. direct is
// the append plus apply time, the part of a POST that is not serving.
func (m *mirror) addFacts(facts []midas.Fact, parent span, tr *tracer) (direct time.Duration, err error) {
	start := time.Now()
	sp := tr.child("store.append", parent)
	err = m.log.AppendFacts(facts)
	sp.end()
	if err != nil {
		return 0, err
	}
	sp = tr.child("session.add_facts", parent)
	m.sess.AddFacts(facts...)
	sp.end()
	direct = time.Since(start)
	m.facts += len(facts)
	if m.log.NeedsSnapshot() {
		err = m.snapshot(parent, tr)
	}
	return direct, err
}

// snapshot compacts the mirror's log, first counting the WAL bytes the
// snapshot retires.
func (m *mirror) snapshot(parent span, tr *tracer) error {
	m.walBytes += dirBytes(m.dir, isWAL)
	sp := tr.child("store.snapshot", parent)
	defer sp.end()
	return m.log.Snapshot(m.sess)
}

func (m *mirror) discover(parent span, tr *tracer) (*midas.Result, error) {
	sp := tr.child("session.fingerprint", parent)
	m.sess.Fingerprint()
	sp.end()
	sp = tr.child("session.discover", parent)
	res, err := m.sess.DiscoverContext(context.Background())
	sp.end()
	return res, err
}

func (m *mirror) absorb(s apiSlice, parent span, tr *tracer) {
	sp := tr.child("session.absorb", parent)
	m.sess.Absorb(s.slice())
	sp.end()
}

// walPerFact is the WAL bytes written per fact appended.
func (m *mirror) walPerFact() (bytes int64, facts int) {
	return m.walBytes + dirBytes(m.dir, isWAL), m.facts
}
