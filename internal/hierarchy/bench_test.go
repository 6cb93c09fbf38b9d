package hierarchy_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"midas/internal/datagen"
	"midas/internal/fact"
	"midas/internal/hierarchy"
	"midas/internal/obs"
	"midas/internal/slice"
)

// leafTables builds the fact table of every leaf web source of w, in
// source order, with newness against w's KB — the tables the framework's
// deepest rounds hand to the detector.
func leafTables(w *datagen.World) []*fact.Table {
	bySource := fact.LeafSources(w.Corpus)
	srcs := make([]string, 0, len(bySource))
	for src := range bySource {
		srcs = append(srcs, src)
	}
	slices.Sort(srcs)
	member := w.KB.Frozen()
	tables := make([]*fact.Table, len(srcs))
	for i, src := range srcs {
		tables[i] = fact.BuildWith(src, w.Corpus.Space, bySource[src].Triples, member)
	}
	return tables
}

// BenchmarkHierarchyBuild measures a full lattice construction — step 1
// of MIDASalg. The small case is the historical single-threaded
// baseline (union/subset kernels and node keying dominate); leaf-tables
// is the multi-source framework's traffic, thousands of small builds
// sharing one Scratch, where per-build set-up cost dominates; the large
// case is the biggest source of the NELL-like datagen corpus — the
// oversized single page that motivates within-source parallelism — run
// across a worker sweep. Output is bit-identical across the sweep (see
// TestParallelBuildEquivalence); only wall time may differ.
func BenchmarkHierarchyBuild(b *testing.B) {
	cost := slice.DefaultCostModel()
	rng := rand.New(rand.NewSource(42))
	small := randomTable(rng, 400, 8, 3, 0.6, 0.3)
	b.Run("small", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bld := &hierarchy.Builder{Table: small, Cost: cost, Options: hierarchy.Options{Workers: 1}}
			bld.Build(nil)
		}
	})

	// The framework's real traffic: one build per leaf web source of
	// ReVerb-Slim — thousands of mostly tiny tables — run in turn on one
	// reused Scratch, as a framework worker runs its sources.
	leaves := leafTables(datagen.ReVerbSlim(datagen.DefaultSlimParams(7)))
	b.Run("leaf-tables", func(b *testing.B) {
		b.ReportAllocs()
		reg := obs.New()
		scratch := new(hierarchy.Scratch)
		for i := 0; i < b.N; i++ {
			for _, t := range leaves {
				bld := &hierarchy.Builder{Table: t, Cost: cost, Options: hierarchy.Options{Workers: 1}, Obs: reg, Scratch: scratch}
				bld.Build(nil)
			}
		}
		b.ReportMetric(float64(len(leaves)), "builds/op")
	})

	large := worldTables(datagen.KnowledgeVaultSim(13), 1)[0]
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("large/workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bld := &hierarchy.Builder{Table: large, Cost: cost, Options: hierarchy.Options{Workers: w}}
				bld.Build(nil)
			}
		})
	}
}

// TestHasChildSublinear pins the HasChild replacement: the old
// O(children) pointer scan would slow down ~128× going from 64 to 8192
// children; the sorted-ID binary search must stay far below that. The
// 24× ceiling leaves room for cache effects and CI noise while still
// ruling out a linear scan.
func TestHasChildSublinear(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	build := func(children int) (*hierarchy.Node, *hierarchy.Node) {
		p := hierarchy.NewNodeForTest(1 << 20)
		for i := 0; i < children; i++ {
			hierarchy.LinkForTest(p, hierarchy.NewNodeForTest(int32(i)))
		}
		// A probe that is not a child forces the full search on every
		// call — the worst case for the linear scan.
		return p, hierarchy.NewNodeForTest(int32(children + 1))
	}
	var sink bool
	probeNs := func(children int) float64 {
		p, probe := build(children)
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink = p.HasChild(probe)
			}
		})
		return float64(res.NsPerOp())
	}
	base := probeNs(64)
	wide := probeNs(8192)
	if base <= 0 {
		base = 1
	}
	if ratio := wide / base; ratio > 24 {
		t.Fatalf("HasChild slowed %.1fx from 64 to 8192 children (%.1fns -> %.1fns); want sublinear (<24x)",
			ratio, base, wide)
	}
	_ = sink
}
