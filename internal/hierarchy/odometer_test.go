package hierarchy

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"midas/internal/dict"
	"midas/internal/fact"
	"midas/internal/kb"
	"midas/internal/slice"
)

// combosByPredicate is the materializing enumeration the odometer
// replaced, kept as its oracle: property combinations taking exactly one
// value per predicate, up to max combinations. props must be sorted,
// which groups values of the same predicate contiguously.
func combosByPredicate(props []fact.Property, max int) ([][]fact.Property, bool) {
	if len(props) == 0 {
		return nil, false
	}
	// Group by predicate.
	var groups [][]fact.Property
	start := 0
	for i := 1; i <= len(props); i++ {
		if i == len(props) || props[i].Pred() != props[start].Pred() {
			groups = append(groups, props[start:i])
			start = i
		}
	}
	combos := [][]fact.Property{{}}
	capped := false
	for _, g := range groups {
		next := make([][]fact.Property, 0, len(combos)*len(g))
	outer:
		for _, c := range combos {
			for _, p := range g {
				if len(next) >= max {
					capped = true
					break outer
				}
				nc := make([]fact.Property, len(c), len(c)+1)
				copy(nc, c)
				next = append(next, append(nc, p))
			}
		}
		combos = next
	}
	return combos, capped
}

// randomProps draws a sorted property list of 1–4 predicates with 1–4
// values each (empty with a small probability), returning it with the
// number of combinations it spans.
func randomProps(rng *rand.Rand) ([]fact.Property, int) {
	if rng.Intn(20) == 0 {
		return nil, 0
	}
	var props []fact.Property
	preds := 1 + rng.Intn(4)
	for p := 0; p < preds; p++ {
		vals := 1 + rng.Intn(4)
		for v := 0; v < vals; v++ {
			props = append(props, fact.Prop(dict.ID(10+3*p+rng.Intn(2)), dict.ID(100+7*v+rng.Intn(5))))
		}
	}
	slices.Sort(props)
	props = slices.Compact(props)
	// Drawn IDs may coincide, merging values or predicate groups, so
	// count the combinations from the final list.
	product := 1
	for i := 0; i < len(props); {
		j := i
		for j < len(props) && props[j].Pred() == props[i].Pred() {
			j++
		}
		product *= j - i
		i = j
	}
	return props, product
}

// TestOdometerMatchesOracle is the differential test of the initial-slice
// enumeration: over random sorted property lists and caps at and around
// the number of combinations, the odometer yields the oracle's
// combinations in the same order, with the same capped flag.
func TestOdometerMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var odo odometer // reused across lists, as a build reuses it
	for trial := 0; trial < 500; trial++ {
		props, product := randomProps(rng)
		for _, limit := range []int{1, product - 1, product, product + 1, DefaultMaxInitCombos} {
			want, wantCapped := combosByPredicate(props, limit)
			n, capped := odo.start(props, limit)
			var got [][]fact.Property
			for range n {
				got = append(got, slices.Clone(odo.next()))
			}
			if capped != wantCapped || len(got) != len(want) {
				t.Fatalf("props %v limit %d: odometer gives %d combos (capped %v), oracle %d (capped %v)",
					props, limit, len(got), capped, len(want), wantCapped)
			}
			for i := range want {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("props %v limit %d: combo %d = %v, oracle %v", props, limit, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSeedStatsMatchOracle checks the build-level effect of the
// enumeration: Stats.InitialSlices and Stats.CombosCapped equal the
// oracle's totals over every entity, for several caps.
func TestSeedStatsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sp := kb.NewSpace()
	var triples []kb.Triple
	for e := 0; e < 60; e++ {
		for p := 0; p < 4; p++ {
			// Up to three values per predicate keeps every entity within
			// DefaultMaxPropsPerEntity, so no trimming interferes.
			for v, vals := 0, rng.Intn(4); v < vals; v++ {
				triples = append(triples, sp.Intern(fmt.Sprintf("e%d", e), fmt.Sprintf("p%d", p), fmt.Sprintf("v%d", rng.Intn(5))))
			}
		}
	}
	table := fact.Build("src", sp, triples, nil)
	scratch := new(Scratch)
	for _, limit := range []int{1, 2, 7, DefaultMaxInitCombos} {
		wantSlices, wantCapped := 0, 0
		for i := range table.Entities {
			combos, capped := combosByPredicate(table.Entities[i].Props, limit)
			wantSlices += len(combos)
			if capped {
				wantCapped++
			}
		}
		b := &Builder{Table: table, Cost: slice.DefaultCostModel(), MaxInitCombos: limit, Scratch: scratch}
		st := b.Build(nil).Stats
		if st.InitialSlices != wantSlices || st.CombosCapped != wantCapped {
			t.Errorf("limit %d: InitialSlices %d, CombosCapped %d; oracle %d, %d",
				limit, st.InitialSlices, st.CombosCapped, wantSlices, wantCapped)
		}
		if st.EntitiesCapped != 0 {
			t.Fatalf("limit %d: %d entities trimmed; the table must stay within the property cap", limit, st.EntitiesCapped)
		}
	}
}
