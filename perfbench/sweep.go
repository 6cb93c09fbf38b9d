package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"midas/internal/core"
	"midas/internal/datagen"
	"midas/internal/dict"
	"midas/internal/fact"
	"midas/internal/framework"
	"midas/internal/hierarchy"
	"midas/internal/idset"
	"midas/internal/kb"
	"midas/internal/obs"
	"midas/internal/slice"
)

// sweepReps is how many times the one-call-at-a-time engine sweep and
// each kernel loop repeat; layer metrics are medians over them.
const sweepReps = 3

// sweepLayers measures the engine and kernel layers one call at a time
// on batch-slim's inputs for the seed, recording a span per call:
// fact.Build, hierarchy.Builder.Build and core.DiscoverTable over every
// domain-level fact table, framework.RunContext over the whole corpus,
// and tight loops over kb.Contains, the idset merge kernels, the idset
// interner and dict interning.
func sweepLayers(o *outcome, w *datagen.World, tr *tracer) {
	space := w.Corpus.Space
	groups := make(map[string][]kb.Triple)
	for _, e := range w.Corpus.Facts {
		d := domainOf(w.Corpus.URLs.String(e.URL))
		groups[d] = append(groups[d], e.Triple)
	}
	domains := make([]string, 0, len(groups))
	for d := range groups {
		domains = append(domains, d)
	}
	sort.Strings(domains)

	var buildMS, hierMS, traverseMS, mallocs, runMS []float64
	rounds := map[int][]float64{}
	var nodes, pruned, processed int64
	var tables []*fact.Table
	for rep := 0; rep < sweepReps; rep++ {
		var sumBuild, sumHier, sumDiscover, sumMallocs float64
		tables = tables[:0]
		reg, coreReg := obs.New(), obs.New()
		nodes = 0
		for _, d := range domains {
			sp := tr.root("fact.build")
			t := fact.Build(d, space, groups[d], w.KB)
			sumBuild += ms(sp.end())
			tables = append(tables, t)

			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			sp = tr.root("hierarchy.build")
			b := &hierarchy.Builder{Table: t, Cost: slice.DefaultCostModel(), Obs: reg}
			h := b.Build(nil)
			sumHier += ms(sp.end())
			runtime.ReadMemStats(&m1)
			sumMallocs += float64(m1.Mallocs - m0.Mallocs)
			nodes += int64(h.Stats.NodesCreated)

			sp = tr.root("core.discover_table")
			core.DiscoverTable(t, core.Options{Obs: coreReg})
			sumDiscover += ms(sp.end())
		}
		// DiscoverTable minus its own build, which core times itself.
		sumTraverse := sumDiscover - 1e3*coreReg.Snapshot().Timers["core/build_hierarchy"].TotalSeconds
		snap := reg.Snapshot().Counters
		pruned = snap["hierarchy/pruned_canonicity"] + snap["hierarchy/pruned_profit_bound"]
		buildMS = append(buildMS, sumBuild)
		hierMS = append(hierMS, sumHier)
		traverseMS = append(traverseMS, sumTraverse)
		mallocs = append(mallocs, sumMallocs)

		sp := tr.root("framework.run")
		out, _ := framework.RunContext(context.Background(), w.Corpus, w.KB, framework.Options{Obs: obs.New()})
		runMS = append(runMS, ms(sp.end()))
		processed = int64(out.SourcesProcessed)
		for _, lv := range out.Levels {
			rounds[lv.Depth] = append(rounds[lv.Depth], lv.Seconds*1e3)
		}
	}
	base := fmt.Sprintf("sum over %d domain tables, median of %d sweeps", len(domains), sweepReps)
	o.setLayer("fact.build_ms", "ms", median(buildMS), base)
	o.setLayer("hierarchy.build_ms", "ms", median(hierMS), base)
	o.setLayer("hierarchy.build_mallocs", "count", median(mallocs), base)
	o.setLayer("hierarchy.nodes", "count", float64(nodes), fmt.Sprintf("lattice nodes created over %d domain tables", len(domains)))
	o.setLayer("hierarchy.pruned_ratio", "ratio", ratio(float64(pruned), float64(nodes)),
		fmt.Sprintf("hierarchy/pruned_* %d / %d nodes", pruned, nodes))
	o.setLayer("core.traverse_ms", "ms", median(traverseMS), base+"; DiscoverTable span minus its core/build_hierarchy timer")
	o.setLayer("framework.run_ms", "ms", median(runMS), fmt.Sprintf("cold framework.RunContext on batch-slim, median of %d", sweepReps))
	for d := 1; d <= 3; d++ {
		o.setLayer(fmt.Sprintf("framework.round_ms.d%d", d), "ms", median(rounds[d]),
			fmt.Sprintf("Output.Levels depth %d, median of %d runs", d, len(rounds[d])))
	}
	if _, ok := o.layer["framework.sources_processed"]; !ok {
		// Workloads without incremental discovery report the cold run.
		o.setLayer("framework.sources_processed", "count", float64(processed), "cold framework.RunContext on batch-slim")
		o.setLayer("framework.reuse_ratio", "ratio", 0, "cold framework.RunContext reuses nothing")
	}
	kernelLayers(o, w, tables, tr)
}

// kernelLayers times the hot kernels in tight loops, in ns per call.
func kernelLayers(o *outcome, w *datagen.World, tables []*fact.Table, tr *tracer) {
	var hits, misses []kb.Triple
	for _, e := range w.Corpus.Facts {
		if w.KB.Contains(e.Triple) {
			hits = append(hits, e.Triple)
		} else {
			misses = append(misses, e.Triple)
		}
	}
	hits = append(hits, w.KB.Triples()...)
	sink := 0
	o.kernel("kb.contains_ns.hit", tr, len(hits), func() {
		for _, t := range hits {
			if w.KB.Contains(t) {
				sink++
			}
		}
	})
	o.kernel("kb.contains_ns.miss", tr, len(misses), func() {
		for _, t := range misses {
			if w.KB.Contains(t) {
				sink++
			}
		}
	})

	// Entity-set pairs from the lattices of the domain tables: adjacent
	// nodes of one level, the operands the builder itself merges.
	var pairs [][2][]int32
	for _, t := range tables {
		h := (&hierarchy.Builder{Table: t, Cost: slice.DefaultCostModel(), Obs: obs.New()}).Build(nil)
		for l := 1; l <= h.MaxLevel; l++ {
			lv := h.Levels[l]
			for i := 1; i < len(lv); i++ {
				pairs = append(pairs, [2][]int32{lv[i-1].Entities.Values(), lv[i].Entities.Values()})
			}
		}
	}
	var dst []int32
	o.kernel("idset.union_ns", tr, len(pairs), func() {
		for _, p := range pairs {
			dst = idset.AppendUnion(dst[:0], p[0], p[1])
		}
	})
	o.kernel("idset.intersect_ns", tr, len(pairs), func() {
		for _, p := range pairs {
			dst = idset.AppendIntersect(dst[:0], p[0], p[1])
		}
	})

	var propSets [][]fact.Property
	for _, t := range tables {
		for i := range t.Entities {
			propSets = append(propSets, t.Entities[i].Props)
		}
	}
	o.kernel("idset.intern_ns", tr, len(propSets), func() {
		in := fact.NewPropInterner()
		for _, ps := range propSets {
			in.Intern(ps)
		}
	})

	space := w.Corpus.Space
	strs := make([]string, 0, 3*len(w.Corpus.Facts))
	for _, e := range w.Corpus.Facts {
		s, p, ob := space.StringTriple(e.Triple)
		strs = append(strs, s, p, ob)
	}
	o.kernel("dict.intern_ns", tr, len(strs), func() {
		d := dict.New(1 << 10)
		for _, s := range strs {
			d.Put(s)
		}
	})
	if sink < 0 {
		panic("unreachable")
	}
}

// kernel runs body (n calls) sweepReps times under a span each and
// reports the median ns per call.
func (o *outcome) kernel(name string, tr *tracer, n int, body func()) {
	if n == 0 {
		o.setLayer(name, "ns", 0, "no inputs")
		return
	}
	body() // warm caches and lazy state
	var per []float64
	for r := 0; r < sweepReps; r++ {
		sp := tr.root(name)
		start := time.Now()
		body()
		d := time.Since(start)
		sp.end()
		per = append(per, float64(d.Nanoseconds())/float64(n))
	}
	o.setLayer(name, "ns", median(per), fmt.Sprintf("%d calls per loop, median of %d loops", n, sweepReps))
}
