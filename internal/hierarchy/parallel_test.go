package hierarchy_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"midas/internal/datagen"
	"midas/internal/fact"
	"midas/internal/hierarchy"
	"midas/internal/kb"
	"midas/internal/source"
)

// buildWith runs one full lattice build over table with the given
// parallelism options. A fresh Builder per call: Build resets and owns
// the builder's state.
func buildWith(table *fact.Table, seeds []hierarchy.Seed, o hierarchy.Options) *hierarchy.Hierarchy {
	b := &hierarchy.Builder{Table: table, Options: o}
	return b.Build(seeds)
}

func propsKey(ps []fact.Property) string { return fmt.Sprint(ps) }

// assertEqualHierarchies compares two builds node by node: property
// sets, entity sets, fact counts, exact profit and lower bound, every
// flag, the ordered child/parent link structure, and the construction
// stats. Exact float equality is intentional — the parallel build must
// execute the same arithmetic in the same order, not merely converge.
func assertEqualHierarchies(t *testing.T, label string, ref, got *hierarchy.Hierarchy) {
	t.Helper()
	if ref.MaxLevel != got.MaxLevel {
		t.Fatalf("%s: MaxLevel = %d, want %d", label, got.MaxLevel, ref.MaxLevel)
	}
	if ref.Stats != got.Stats {
		t.Fatalf("%s: Stats = %+v, want %+v", label, got.Stats, ref.Stats)
	}
	for l := 1; l <= ref.MaxLevel; l++ {
		rl, gl := ref.Levels[l], got.Levels[l]
		if len(rl) != len(gl) {
			t.Fatalf("%s: level %d has %d nodes, want %d", label, l, len(gl), len(rl))
		}
		for i := range rl {
			assertEqualNode(t, fmt.Sprintf("%s: level %d node %d", label, l, i), rl[i], gl[i])
		}
	}
}

func assertEqualNode(t *testing.T, label string, ref, got *hierarchy.Node) {
	t.Helper()
	if propsKey(ref.Props) != propsKey(got.Props) {
		t.Fatalf("%s: Props = %v, want %v", label, got.Props, ref.Props)
	}
	if rv, gv := fmt.Sprint(ref.Entities.Values()), fmt.Sprint(got.Entities.Values()); rv != gv {
		t.Fatalf("%s: Entities = %s, want %s", label, gv, rv)
	}
	if ref.Facts != got.Facts || ref.NewFacts != got.NewFacts {
		t.Fatalf("%s: Facts/NewFacts = %d/%d, want %d/%d", label, got.Facts, got.NewFacts, ref.Facts, ref.NewFacts)
	}
	if ref.Profit != got.Profit || ref.FLB != got.FLB {
		t.Fatalf("%s: Profit/FLB = %v/%v, want %v/%v", label, got.Profit, got.FLB, ref.Profit, ref.FLB)
	}
	if ref.Initial != got.Initial || ref.Canonical != got.Canonical ||
		ref.Valid != got.Valid || ref.Covered != got.Covered || ref.SLBSelf != got.SLBSelf {
		t.Fatalf("%s: flags (init/canon/valid/covered/slbself) = %v/%v/%v/%v/%v, want %v/%v/%v/%v/%v",
			label, got.Initial, got.Canonical, got.Valid, got.Covered, got.SLBSelf,
			ref.Initial, ref.Canonical, ref.Valid, ref.Covered, ref.SLBSelf)
	}
	assertEqualLinks(t, label+" SLB", ref.SLB, got.SLB)
	assertEqualLinks(t, label+" Children", ref.Children, got.Children)
	assertEqualLinks(t, label+" Parents", ref.Parents, got.Parents)
}

// assertEqualLinks compares two node lists elementwise by property set,
// in order: the determinism contract covers link order, not just link
// membership.
func assertEqualLinks(t *testing.T, label string, ref, got []*hierarchy.Node) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: %d nodes, want %d", label, len(got), len(ref))
	}
	for i := range ref {
		if propsKey(ref[i].Props) != propsKey(got[i].Props) {
			t.Fatalf("%s[%d]: %v, want %v", label, i, got[i].Props, ref[i].Props)
		}
	}
}

// worldTables builds per-domain fact tables from a datagen world,
// largest domains first, keeping the topK biggest (the long tail adds
// runtime without adding lattice shapes). Domain granularity matches
// what the framework's upward merge feeds the detector at the final
// round — the tables where one oversized source serializes a run and
// within-source parallelism pays off.
func worldTables(w *datagen.World, topK int) []*fact.Table {
	bySrc := make(map[string][]kb.Triple)
	for _, e := range w.Corpus.Facts {
		src := source.Normalize(w.Corpus.URLs.String(e.URL))
		if src == "" {
			continue
		}
		src = source.Domain(src)
		bySrc[src] = append(bySrc[src], e.Triple)
	}
	srcs := make([]string, 0, len(bySrc))
	for src := range bySrc {
		srcs = append(srcs, src)
	}
	sort.Slice(srcs, func(i, j int) bool {
		if a, b := len(bySrc[srcs[i]]), len(bySrc[srcs[j]]); a != b {
			return a > b
		}
		return srcs[i] < srcs[j]
	})
	if len(srcs) > topK {
		srcs = srcs[:topK]
	}
	tables := make([]*fact.Table, len(srcs))
	for i, src := range srcs {
		tables[i] = fact.Build(src, w.Corpus.Space, bySrc[src], w.KB)
	}
	return tables
}

// TestParallelBuildEquivalence is the differential suite behind the
// determinism contract: for every datagen corpus and a spread of worker
// counts, the parallel build must be bit-identical to the sequential
// one — node by node, including link order and construction stats.
func TestParallelBuildEquivalence(t *testing.T) {
	worlds := []struct {
		name string
		gen  func() *datagen.World
	}{
		{"reverb-slim", func() *datagen.World { return datagen.ReVerbSlim(datagen.DefaultSlimParams(7)) }},
		{"nell-slim", func() *datagen.World { return datagen.NELLSlim(datagen.DefaultSlimParams(11)) }},
		{"knowledgevault-sim", func() *datagen.World { return datagen.KnowledgeVaultSim(13) }},
	}
	workerCounts := []int{2, 8, runtime.GOMAXPROCS(0)}
	for _, wc := range worlds {
		wc := wc
		t.Run(wc.name, func(t *testing.T) {
			t.Parallel()
			w := wc.gen()
			for ti, table := range worldTables(w, 6) {
				ref := buildWith(table, nil, hierarchy.Options{Workers: 1})
				for _, n := range workerCounts {
					got := buildWith(table, nil, hierarchy.Options{Workers: n})
					label := fmt.Sprintf("table %d (%s, %d entities) workers=%d", ti, table.Source, len(table.Entities), n)
					assertEqualHierarchies(t, label, ref, got)
				}
			}
		})
	}
}

// TestParallelBuildEquivalenceDense drives the sharded paths hard: a
// single dense random table large enough that every level clears the
// minimum-chunk gates, plus external seeds (the framework's child-slice
// path).
func TestParallelBuildEquivalenceDense(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	table := randomTable(rng, 2000, 10, 3, 0.55, 0.3)
	seeds := []hierarchy.Seed{
		{Props: table.Entities[0].Props[:1], Entities: []int32{0, 5, 9}},
		{Props: table.Entities[1].Props[:2], Entities: []int32{1, 2}},
	}
	ref := buildWith(table, seeds, hierarchy.Options{Workers: 1})
	for _, n := range []int{2, 3, 8, runtime.GOMAXPROCS(0)} {
		got := buildWith(table, seeds, hierarchy.Options{Workers: n})
		assertEqualHierarchies(t, fmt.Sprintf("dense workers=%d", n), ref, got)
	}
}

// TestParallelBuildOversubscribed mirrors the framework's stress test:
// far more workers than GOMAXPROCS must neither race nor change the
// output. Most valuable under -race.
func TestParallelBuildOversubscribed(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	table := randomTable(rng, 2000, 9, 3, 0.6, 0.25)
	workers := 4*runtime.GOMAXPROCS(0) + 3
	ref := buildWith(table, nil, hierarchy.Options{Workers: 1})
	got := buildWith(table, nil, hierarchy.Options{Workers: workers})
	assertEqualHierarchies(t, fmt.Sprintf("oversubscribed workers=%d", workers), ref, got)
}

// TestSharedPoolConcurrentBuilds runs several builds concurrently over
// one shared Pool — the framework's shape, where source-level and
// lattice-level parallelism draw on one token budget. Each build must
// still match its own sequential reference, and the pool must never
// deadlock even though every builder also wants extra tokens.
func TestSharedPoolConcurrentBuilds(t *testing.T) {
	const builds = 6
	pool := hierarchy.NewPool(runtime.GOMAXPROCS(0))
	tables := make([]*fact.Table, builds)
	refs := make([]*hierarchy.Hierarchy, builds)
	for i := range tables {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		tables[i] = randomTable(rng, 800+200*i, 8, 3, 0.5, 0.3)
		refs[i] = buildWith(tables[i], nil, hierarchy.Options{Workers: 1})
	}
	var wg sync.WaitGroup
	results := make([]*hierarchy.Hierarchy, builds)
	for i := range tables {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Acquire mirrors the framework's shard token; extra lattice
			// workers come from the same pool via TryAcquire.
			pool.Acquire()
			defer pool.Release()
			results[i] = buildWith(tables[i], nil, hierarchy.Options{Workers: 8, Pool: pool})
		}(i)
	}
	wg.Wait()
	for i := range results {
		assertEqualHierarchies(t, fmt.Sprintf("shared-pool build %d", i), refs[i], results[i])
	}
}

// TestScratchReuseEquivalence pins the per-worker scratch contract:
// builds that share one Scratch, as a framework worker's successive
// sources do, match builds with a private one, whatever sizes and
// worker counts ran on the scratch before.
func TestScratchReuseEquivalence(t *testing.T) {
	tables := worldTables(datagen.ReVerbSlim(datagen.DefaultSlimParams(7)), 8)
	tables = append(tables, randomTable(rand.New(rand.NewSource(47)), 2000, 10, 3, 0.55, 0.3))
	seeds := []hierarchy.Seed{{Props: tables[0].Entities[0].Props[:1], Entities: []int32{0, 1}}}
	scratch := new(hierarchy.Scratch)
	// Forward then backward, so every table follows both a larger and a
	// smaller one on the same scratch.
	for pass := 0; pass < 2; pass++ {
		for k := range tables {
			i := k
			if pass == 1 {
				i = len(tables) - 1 - k
			}
			var sd []hierarchy.Seed
			if i == 0 {
				sd = seeds
			}
			for _, workers := range []int{1, 4} {
				o := hierarchy.Options{Workers: workers}
				ref := buildWith(tables[i], sd, o)
				got := (&hierarchy.Builder{Table: tables[i], Options: o, Scratch: scratch}).Build(sd)
				assertEqualHierarchies(t, fmt.Sprintf("pass %d table %d workers=%d", pass, i, workers), ref, got)
			}
		}
	}
}
