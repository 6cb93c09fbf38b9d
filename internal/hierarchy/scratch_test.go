package hierarchy

import (
	"fmt"
	"math/rand"
	"testing"

	"midas/internal/fact"
	"midas/internal/kb"
	"midas/internal/slice"
)

// pinnedNodes counts the node pointers anywhere in s's storage,
// including the spare capacity past each buffer's length.
func pinnedNodes(s *Scratch) int {
	count := func(nodes []*Node) (n int) {
		for _, x := range nodes[:cap(nodes)] {
			if x != nil {
				n++
			}
		}
		return n
	}
	n := count(s.nodes)
	for _, lv := range s.levels[:cap(s.levels)] {
		n += count(lv)
	}
	for w := range s.workers {
		ws := &s.workers[w]
		n += count(ws.lb)
		for _, op := range ws.gen.ops[:cap(ws.gen.ops)] {
			if op.child != nil {
				n++
			}
		}
	}
	return n
}

// TestScratchReleasesNodes pins the retention contract of a reused
// Scratch: once Build returns, the scratch holds no node of the
// hierarchy it built — sequential and sharded builds alike — so a
// worker's scratch never keeps a finished source's lattice alive.
func TestScratchReleasesNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sp := kb.NewSpace()
	var triples []kb.Triple
	for e := 0; e < 1500; e++ {
		for p := 0; p < 8; p++ {
			if rng.Float64() < 0.6 {
				triples = append(triples, sp.Intern(fmt.Sprintf("e%d", e), fmt.Sprintf("p%d", p), fmt.Sprintf("v%d", rng.Intn(3))))
			}
		}
	}
	table := fact.Build("src", sp, triples, nil)
	scratch := new(Scratch)
	for _, workers := range []int{1, 4} {
		b := &Builder{Table: table, Cost: slice.DefaultCostModel(), Options: Options{Workers: workers}, Scratch: scratch}
		if h := b.Build(nil); h.Stats.NodesCreated == 0 {
			t.Fatal("build created no nodes")
		}
		if n := pinnedNodes(scratch); n != 0 {
			t.Errorf("workers=%d: scratch still references %d nodes after Build", workers, n)
		}
	}
	if len(scratch.workers) < 2 {
		t.Errorf("the sharded build used %d worker scratches, want several", len(scratch.workers))
	}
}
