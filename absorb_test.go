package midas_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"midas"
	"midas/internal/datagen"
	"midas/internal/source"
)

// refAbsorber is a string-level reference for Session.Absorb: corpus
// facts grouped by subject string, each URL normalized, and the
// slice's source taken with the same prefix test ("a.com/w" covers
// "a.com/w" and "a.com/w/…", not "a.com/wx"). It grows a twin
// session's KB through the public KB().Add — one insert attempt per
// matching fact, as Absorb makes — so the twin's KBEpoch and
// Fingerprint are the reference values for the session under test.
type refAbsorber struct {
	twin      *midas.Session
	bySubject map[string][]refFact
	kb        map[[3]string]bool
}

type refFact struct{ s, p, o, src string }

func newRefAbsorber(existing [][3]string) (*refAbsorber, *midas.KB) {
	twinKB, testKB := midas.NewKB(), midas.NewKB()
	r := &refAbsorber{bySubject: make(map[string][]refFact), kb: make(map[[3]string]bool)}
	for _, t := range existing {
		twinKB.Add(t[0], t[1], t[2])
		testKB.Add(t[0], t[1], t[2])
		r.kb[t] = true
	}
	r.twin = midas.NewSession(twinKB, nil)
	return r, testKB
}

func (r *refAbsorber) addFacts(fs []midas.Fact) {
	r.twin.AddFacts(fs...)
	for _, f := range fs {
		r.bySubject[f.Subject] = append(r.bySubject[f.Subject],
			refFact{f.Subject, f.Predicate, f.Object, source.Normalize(f.URL)})
	}
}

func (r *refAbsorber) absorb(sl midas.Slice) int {
	members := make(map[string]bool, len(sl.Entities))
	for _, e := range sl.Entities {
		members[e] = true
	}
	added := 0
	for e := range members {
		for _, f := range r.bySubject[e] {
			if f.src != sl.Source && !strings.HasPrefix(f.src, sl.Source+"/") {
				continue
			}
			r.twin.KB().Add(f.s, f.p, f.o)
			k := [3]string{f.s, f.p, f.o}
			if !r.kb[k] {
				r.kb[k] = true
				added++
			}
		}
	}
	return added
}

// check asserts that sess matches the reference after one step: the
// absorbed count, the KB triple set, the KB epoch and the fingerprint.
func (r *refAbsorber) check(t *testing.T, label string, sess *midas.Session, got, want int) {
	t.Helper()
	if got != want {
		t.Fatalf("%s: Absorb added %d, reference %d", label, got, want)
	}
	if n := sess.KB().Size(); n != len(r.kb) {
		t.Fatalf("%s: KB holds %d triples, reference %d", label, n, len(r.kb))
	}
	for k := range r.kb {
		if !sess.KB().Contains(k[0], k[1], k[2]) {
			t.Fatalf("%s: KB lacks reference triple %q", label, k)
		}
	}
	if ge, we := sess.KBEpoch(), r.twin.KBEpoch(); ge != we {
		t.Fatalf("%s: KB epoch %d, reference %d", label, ge, we)
	}
	if gf, wf := sess.Fingerprint(), r.twin.Fingerprint(); gf != wf {
		t.Fatalf("%s: fingerprint %016x, reference %016x", label, gf, wf)
	}
}

// randomSlice draws a slice over facts: a source at a random depth of
// a random fact's URL (sometimes one no fact lives under), and a few
// subjects — some not ingested yet, some never in the corpus, some
// repeated.
func randomSlice(rng *rand.Rand, facts []midas.Fact) midas.Slice {
	src := source.Normalize(facts[rng.Intn(len(facts))].URL)
	if parts := strings.Split(src, "/"); len(parts) > 1 {
		src = strings.Join(parts[:1+rng.Intn(len(parts))], "/")
	}
	if rng.Intn(8) == 0 {
		src += "x"
	}
	var ents []string
	for i, n := 0, 1+rng.Intn(12); i < n; i++ {
		switch rng.Intn(10) {
		case 0:
			ents = append(ents, fmt.Sprintf("unseen entity %d", rng.Intn(100)))
		case 1:
			if len(ents) > 0 {
				ents = append(ents, ents[rng.Intn(len(ents))])
			}
		default:
			ents = append(ents, facts[rng.Intn(len(facts))].Subject)
		}
	}
	return midas.Slice{Source: src, Entities: ents}
}

// TestAbsorbMatchesStringReference runs a seeded sequence of AddFacts
// and Absorb on a generated corpus — random slices, discovered slices,
// and the edge cases of the source test — against refAbsorber, and
// continues the sequence on a session restored with ReadState.
func TestAbsorbMatchesStringReference(t *testing.T) {
	world := datagen.ReVerbSlim(datagen.SlimParams{Domains: 6, GoodDomains: 3, Seed: 17})
	facts := worldFacts(world)
	rng := rand.New(rand.NewSource(1))

	// Seed both KBs with a sample of the corpus so absorbs also meet
	// triples the KB already holds.
	var existing [][3]string
	for i := 0; i < len(facts); i += 7 {
		existing = append(existing, [3]string{facts[i].Subject, facts[i].Predicate, facts[i].Object})
	}
	ref, testKB := newRefAbsorber(existing)
	sess := midas.NewSession(testKB, nil)

	step := 0
	absorb := func(sl midas.Slice) int {
		t.Helper()
		step++
		got, want := sess.Absorb(sl), ref.absorb(sl)
		ref.check(t, fmt.Sprintf("step %d (source %q)", step, sl.Source), sess, got, want)
		return got
	}
	ingest := func(fs []midas.Fact) {
		sess.AddFacts(fs...)
		ref.addFacts(fs)
	}

	for off := 0; off < len(facts); {
		n := min(50+rng.Intn(400), len(facts)-off)
		ingest(facts[off : off+n])
		off += n
		for i, k := 0, 1+rng.Intn(3); i < k; i++ {
			absorb(randomSlice(rng, facts))
		}
		if rng.Intn(3) == 0 {
			res, err := sess.DiscoverContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for _, sl := range res.Slices[:min(2, len(res.Slices))] {
				absorb(sl)
			}
		}
	}

	// Edge cases of the source test.
	if n := absorb(midas.Slice{Source: source.Normalize(facts[0].URL), Entities: []string{"no such entity"}}); n != 0 {
		t.Fatalf("absorbing an unknown entity added %d", n)
	}
	ingest([]midas.Fact{{Subject: "bare entity", Predicate: "kind", Object: "bare", Confidence: 0.9, URL: "http:///"}})
	if n := absorb(midas.Slice{Source: "a.com", Entities: []string{"bare entity"}}); n != 0 {
		t.Fatalf("a fact with no source was absorbed under a.com: %d", n)
	}
	if n := absorb(midas.Slice{Source: "", Entities: []string{"bare entity"}}); n != 1 {
		t.Fatalf("empty-source slice absorbed %d, want 1", n)
	}
	ingest([]midas.Fact{
		{Subject: "edge entity", Predicate: "kind", Object: "in", Confidence: 0.9, URL: "http://a.com/w/p.htm"},
		{Subject: "edge entity", Predicate: "kind", Object: "out", Confidence: 0.9, URL: "http://a.com/wx/p.htm"},
	})
	if n := absorb(midas.Slice{Source: "a.com/w", Entities: []string{"edge entity"}}); n != 1 {
		t.Fatalf("a.com/w absorbed %d facts, want 1", n)
	}
	if sess.KB().Contains("edge entity", "kind", "out") {
		t.Fatal("a.com/w took a fact from a.com/wx")
	}

	// Absorb straight after ReadState, then keep going on the restored
	// session.
	var buf bytes.Buffer
	if err := sess.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := midas.ReadState(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess = restored
	if n := absorb(midas.Slice{Source: "a.com", Entities: []string{"edge entity"}}); n != 1 {
		t.Fatalf("a.com absorbed %d facts after ReadState, want 1", n)
	}
	for i := 0; i < 10; i++ {
		absorb(randomSlice(rng, facts))
	}
}

// TestProgressConcurrentReader: Progress is a reader, so it completes
// while a discovery holds the session, and it stays race-free beside
// DiscoverContext and AddFacts.
func TestProgressConcurrentReader(t *testing.T) {
	// armed makes the next detection park until release: the
	// discovery then holds the session's read lock.
	var armed atomic.Bool
	inDetect, release := make(chan struct{}), make(chan struct{})
	sess := midas.NewSession(nil, &midas.Options{
		Detect: countingDetector(func(int64) {
			if armed.CompareAndSwap(true, false) {
				close(inDetect)
				<-release
			}
		}),
	})
	facts := sessionCorpusFacts()
	sess.AddFacts(facts...)
	res := sess.Discover()
	for _, sl := range res.Slices[:min(2, len(res.Slices))] {
		sess.Absorb(sl)
	}
	wantKB, wantCov := sess.Progress()
	if wantKB == 0 || wantCov == 0 {
		t.Fatalf("nothing absorbed: kb=%d coverage=%v", wantKB, wantCov)
	}
	covered := int(wantCov*float64(len(facts)) + 0.5)

	armed.Store(true)
	sess.AddFacts(midas.Fact{Subject: "late entity", Predicate: "kind", Object: "late",
		Confidence: 0.9, URL: "http://late.example.com/e.htm"})
	discovered := make(chan error, 1)
	go func() {
		_, err := sess.DiscoverContext(context.Background())
		discovered <- err
	}()
	select {
	case <-inDetect:
	case err := <-discovered:
		t.Fatalf("discovery ended without running detection (err %v)", err)
	}
	progressed := make(chan struct{})
	go func() {
		sess.Progress()
		close(progressed)
	}()
	select {
	case <-progressed:
	case <-time.After(10 * time.Second):
		t.Error("Progress waited for an in-flight discovery")
	}
	close(release)
	<-progressed
	if err := <-discovered; err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				switch c % 3 {
				case 0:
					if _, err := sess.DiscoverContext(context.Background()); err != nil {
						t.Errorf("discover: %v", err)
					}
				case 1:
					sess.AddFacts(midas.Fact{
						Subject:   fmt.Sprintf("c%d entity %d", c, i),
						Predicate: "kind", Object: "concurrent", Confidence: 0.9,
						URL: fmt.Sprintf("http://conc.example.com/c%d/e%d.htm", c, i),
					})
				default:
					if kb, _ := sess.Progress(); kb != wantKB {
						t.Errorf("Progress reported %d KB facts, want %d", kb, wantKB)
					}
				}
			}
		}(c)
	}
	wg.Wait()

	// Every added fact is new to the KB, so coverage is the absorbed
	// count over the grown corpus.
	_, gotCov := sess.Progress()
	if want := float64(covered) / float64(len(facts)+1+2*4); gotCov != want {
		t.Errorf("coverage after concurrent ingest = %v, want %v", gotCov, want)
	}
}
