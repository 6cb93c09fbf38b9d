package midas

import (
	"fmt"
	"io"
	"math"

	"midas/internal/binio"
	"midas/internal/dict"
	"midas/internal/fact"
	"midas/internal/idset"
	"midas/internal/kb"
)

// Session state block ("MSS1"): the ID-faithful serialization of a
// session's KB and corpus, written into durability snapshots by
// internal/store. Unlike the public SaveBinary formats — which emit
// only the strings a structure uses and remap IDs on load — the state
// block serializes the interning dictionaries verbatim in ID order,
// then the KB triples and corpus facts as raw IDs with exact float32
// confidence bits, plus the KB mutation epoch. That exactness is the
// point: Fingerprint hashes interned IDs and the epoch, and slice
// entity order derives from ID order, so a session restored from a
// state block is fingerprint- and slice-identical to the one that
// wrote it — including for the mutations replayed on top of it from a
// write-ahead log, which re-intern into identical IDs.
//
// Layout, all binio varints:
//
//	"MSS1"
//	4 × dictionary (subjects, predicates, objects, URLs): count, strings
//	KB triple count, triples sorted by (S,P,O) — S delta-encoded, P, O
//	KB epoch
//	corpus fact count, facts in order: S, P, O, URL, Float32bits(conf)
const stateMagic = "MSS1"

// WriteState serializes the session's discovery-relevant state (KB,
// corpus, dictionaries, epoch). It holds the session read lock:
// concurrent discoveries proceed, mutations wait.
func (s *Session) WriteState(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	bw := binio.NewWriter(w)
	bw.Magic(stateMagic)
	space := s.kb.store.Space()
	for _, d := range []*dict.Dict{space.Subjects, space.Predicates, space.Objects, s.corpus.c.URLs} {
		strs := d.Strings()
		bw.Int(len(strs))
		for _, str := range strs {
			bw.String(str)
		}
	}
	triples := s.kb.store.Triples()
	bw.Int(len(triples))
	var prevS uint64
	for i, t := range triples {
		// Sorted by subject first, so S is non-decreasing and
		// delta-encodes cheaply (same trick as the public KB binary).
		sID := uint64(uint32(t.S))
		if i == 0 {
			bw.Uvarint(sID)
		} else {
			bw.Uvarint(sID - prevS)
		}
		prevS = sID
		bw.Uvarint(uint64(uint32(t.P)))
		bw.Uvarint(uint64(uint32(t.O)))
	}
	bw.Uvarint(s.kb.store.Epoch())
	facts := s.corpus.c.Facts
	bw.Int(len(facts))
	for _, e := range facts {
		bw.Uvarint(uint64(uint32(e.Triple.S)))
		bw.Uvarint(uint64(uint32(e.Triple.P)))
		bw.Uvarint(uint64(uint32(e.Triple.O)))
		bw.Uvarint(uint64(uint32(e.URL)))
		bw.Uvarint(uint64(math.Float32bits(e.Conf)))
	}
	return bw.Flush()
}

// ReadState reconstructs a session from a state block written by
// WriteState, with the given discovery options (nil = defaults). The
// restored session is fingerprint-identical to the writer; it holds no
// incremental-discovery prior, so its next discovery runs from scratch
// — which the incremental path guarantees is result-identical.
func ReadState(r io.Reader, opts *Options) (*Session, error) {
	br := binio.NewReader(r)
	br.Magic(stateMagic)

	readDict := func(d *dict.Dict, what string) error {
		n := br.Int()
		if err := br.Err(); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			str := br.String()
			if err := br.Err(); err != nil {
				return err
			}
			if d.Put(str) != dict.ID(i) {
				return fmt.Errorf("%w: duplicate %s string %q", binio.ErrCorrupt, what, str)
			}
		}
		return nil
	}

	space := kb.NewSpace()
	store := kb.New(space)
	corpus := fact.NewCorpus(space)
	for _, sec := range []struct {
		d    *dict.Dict
		what string
	}{
		{space.Subjects, "subject"},
		{space.Predicates, "predicate"},
		{space.Objects, "object"},
		{corpus.URLs, "url"},
	} {
		if err := readDict(sec.d, sec.what); err != nil {
			return nil, err
		}
	}
	nSubj := uint64(space.Subjects.Len())
	nPred := uint64(space.Predicates.Len())
	nObj := uint64(space.Objects.Len())
	nURL := uint64(corpus.URLs.Len())

	nTriples := br.Int()
	if err := br.Err(); err != nil {
		return nil, err
	}
	var prevS uint64
	for i := 0; i < nTriples; i++ {
		sID := br.Uvarint()
		if i > 0 {
			sID += prevS
		}
		prevS = sID
		pID, oID := br.Uvarint(), br.Uvarint()
		if err := br.Err(); err != nil {
			return nil, err
		}
		if sID >= nSubj || pID >= nPred || oID >= nObj {
			return nil, fmt.Errorf("%w: KB triple %d references out-of-range string", binio.ErrCorrupt, i)
		}
		t := kb.Triple{S: dict.ID(sID), P: dict.ID(pID), O: dict.ID(oID)}
		if !store.Add(t) {
			return nil, fmt.Errorf("%w: duplicate KB triple %d", binio.ErrCorrupt, i)
		}
	}
	epoch := br.Uvarint()
	nFacts := br.Int()
	if err := br.Err(); err != nil {
		return nil, err
	}
	if epoch < uint64(nTriples) {
		return nil, fmt.Errorf("%w: KB epoch %d below triple count %d", binio.ErrCorrupt, epoch, nTriples)
	}
	for i := 0; i < nFacts; i++ {
		sID, pID, oID := br.Uvarint(), br.Uvarint(), br.Uvarint()
		uID, confBits := br.Uvarint(), br.Uvarint()
		if err := br.Err(); err != nil {
			return nil, err
		}
		if sID >= nSubj || pID >= nPred || oID >= nObj || uID >= nURL || confBits > math.MaxUint32 {
			return nil, fmt.Errorf("%w: corpus fact %d references out-of-range value", binio.ErrCorrupt, i)
		}
		corpus.AddTriple(
			kb.Triple{S: dict.ID(sID), P: dict.ID(pID), O: dict.ID(oID)},
			dict.ID(uID),
			math.Float32frombits(uint32(confBits)),
		)
	}
	store.RestoreEpoch(epoch)
	return &Session{
		kb:     &KB{store: store},
		corpus: &Corpus{c: corpus},
		opts:   opts.orDefault(),
		factFP: idset.FingerprintSeed,
	}, nil
}

// KBEpoch returns the session KB's mutation epoch — the counter the
// fingerprint folds in. Durability snapshots stamp it so recovery can
// restore it exactly (see internal/store).
func (s *Session) KBEpoch() uint64 {
	return s.kb.store.Epoch()
}
