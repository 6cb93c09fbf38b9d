package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"time"

	"midas"
	"midas/internal/datagen"
	"midas/internal/eval"
	"midas/internal/kb"
	"midas/internal/source"
)

// sliceF1Floor is the least F-measure a correct engine reaches on
// ReVerb-Slim at coverage 0; the paper-shape tests in
// internal/experiments pin MIDAS well above it.
const sliceF1Floor = 0.5

// runBatch is batch-slim: one caller repeatedly runs a cold
// midas.DiscoverContext over ReVerb-Slim with default options.
func runBatch(cfg config) (*outcome, error) {
	w := slimWorld(cfg.seed, cfg.tiny)
	facts := worldFacts(w)
	kbTSV := worldKBTSV(w)
	o := &outcome{ops: newOpBook()}
	baseHeap := liveHeapMB()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	// Set-up is the system loading the generated inputs: KB.LoadTSV and
	// Corpus.Add, repeated so setup_s is a median.
	reps := 5
	if cfg.trace {
		reps = 1
	}
	var (
		corpus *midas.Corpus
		kbm    *midas.KB
		setups []float64
	)
	for r := 0; r < reps; r++ {
		start := time.Now()
		kbm = midas.NewKB()
		sp := tr.root("kb.load")
		_, err := kbm.LoadTSV(bytes.NewReader(kbTSV))
		sp.end()
		if err != nil {
			return nil, err
		}
		corpus = midas.NewCorpus(kbm)
		for _, f := range facts {
			corpus.Add(f)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	ctx := context.Background()
	if _, err := midas.DiscoverContext(ctx, corpus, kbm, nil); err != nil { // warm-up, untimed
		return nil, err
	}

	var digests []string
	var first *midas.Result
	phase := func(seconds float64, tr *tracer) (samples, time.Duration) {
		var lat samples
		start := time.Now()
		for time.Since(start).Seconds() < seconds {
			sp := tr.root("midas.discover")
			t := time.Now()
			res, err := midas.DiscoverContext(ctx, corpus, kbm, nil)
			lat.add(time.Since(t))
			sp.end()
			o.ops.call("midas.DiscoverContext", err)
			if err != nil {
				continue
			}
			if first == nil {
				first = res
			}
			digests = append(digests, digest(normSlices(res.Slices)))
		}
		return lat, time.Since(start)
	}

	untracedS, tracedS := splitSeconds(cfg)
	before := readMem()
	lat, elapsed := phase(untracedS, nil)
	after := readMem()
	heap := liveHeapMB() - baseHeap
	o.goLayer(before, after, len(lat), "discover")

	o.e2e = contractMetrics(median(setups), len(setups), lat,
		ratio(float64(len(lat)), elapsed.Seconds()), fmt.Sprintf("discovers/s, %d in %.2fs", len(lat), elapsed.Seconds()), heap)
	o.latencyDetail("discover_ms", lat)

	if cfg.trace {
		tlat, _ := phase(tracedS, tr)
		o.traceOverhead(lat, tlat)
		o.spanLayer(tr.stats(), "kb.load", "kb.load_ms")
		sweepLayers(o, w, tr)
		if err := probeServing(o, w, cfg.dataDir); err != nil {
			return nil, err
		}
	}

	// Checks: every repetition ranked the same slices with the same
	// profits, and the ranking scores against the silver standard.
	if first == nil {
		return nil, fmt.Errorf("no discovery completed")
	}
	if cfg.breakIt {
		digests = append(digests, corruptDigest(first))
	}
	stable := 0
	for _, d := range digests {
		if d == digests[0] {
			stable++
		}
	}
	o.addCheck("digest-stable", stable == len(digests), "%d/%d repetitions match digest %s", stable, len(digests), digests[0])

	scored := first.Slices
	if cfg.breakIt {
		scored = corruptEntities(scored)
	}
	prf := sliceF1(w, scored)
	o.addDetail("slice_f1", "ratio", prf.F1, fmt.Sprintf("P=%.4f R=%.4f over %d slices, %d silver", prf.Precision, prf.Recall, len(scored), len(w.Silver)))
	o.addDetail("setup_s", "s", median(setups), fmt.Sprintf("median of %d", len(setups)))
	o.addDetail("heap_mb", "MB", heap, "live heap after GC, program state only")
	o.failedRatioDetail()
	o.addCheck("slice-f1", prf.F1 >= sliceF1Floor, "F1=%.4f (floor %.2f)", prf.F1, sliceF1Floor)
	return o, nil
}

// splitSeconds divides the run: an untraced run measures for the whole
// time; a traced run measures half untraced and half traced, so the
// difference between the halves is the tracing overhead.
func splitSeconds(cfg config) (untraced, traced float64) {
	if cfg.trace {
		return cfg.seconds / 2, cfg.seconds / 2
	}
	return cfg.seconds, 0
}

// traceOverhead reports how much slower the headline operation ran
// with spans recorded than without, as a share of the untraced median.
func (o *outcome) traceOverhead(untraced, traced samples) {
	u, t := untraced.p50(), traced.p50()
	o.setLayer("trace.overhead_ratio", "ratio", ratio(t-u, u),
		fmt.Sprintf("op p50 traced %.4g ms (n=%d) vs untraced %.4g ms (n=%d)", t, len(traced), u, len(untraced)))
}

// sliceF1 scores ranked slices against the world's silver standard the
// way Fig. 9 does: each slice's fact set (its entities' facts within
// its source) matched by fact-set Jaccard ≥ 0.95.
func sliceF1(w *datagen.World, slices []midas.Slice) eval.PRF {
	space := w.Corpus.Space
	index := make(map[string]map[string][]kb.Triple)
	for _, e := range w.Corpus.Facts {
		src := source.Normalize(w.Corpus.URLs.String(e.URL))
		subj := space.Subjects.String(e.Triple.S)
		for _, lv := range source.Levels(src) {
			m := index[lv]
			if m == nil {
				m = make(map[string][]kb.Triple)
				index[lv] = m
			}
			m[subj] = append(m[subj], e.Triple)
		}
	}
	predicted := make([][]kb.Triple, len(slices))
	for i, s := range slices {
		var set []kb.Triple
		for _, ent := range s.Entities {
			set = append(set, index[s.Source][ent]...)
		}
		predicted[i] = sortedUnique(set)
	}
	silver := make([][]kb.Triple, len(w.Silver))
	for i, gs := range w.Silver {
		silver[i] = sortedUnique(append([]kb.Triple(nil), gs.Facts...))
	}
	return eval.Score(predicted, silver)
}

func sortedUnique(ts []kb.Triple) []kb.Triple {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Less(ts[j]) })
	out := ts[:0]
	for i, t := range ts {
		if i == 0 || t != ts[i-1] {
			out = append(out, t)
		}
	}
	return out
}

// corruptDigest is the break mode's wrong repetition: the same ranking
// with the top slice's profit nudged.
func corruptDigest(res *midas.Result) string {
	slices := normSlices(res.Slices)
	if len(slices) == 0 {
		return "corrupt/empty"
	}
	slices[0].Profit += 1e-9
	return digest(slices)
}

// corruptEntities is the break mode's wrong ranking: every slice keeps
// its source and profit but loses all entities but one.
func corruptEntities(slices []midas.Slice) []midas.Slice {
	out := make([]midas.Slice, len(slices))
	for i, s := range slices {
		s.Entities = s.Entities[:min(1, len(s.Entities))]
		out[i] = s
	}
	return out
}
