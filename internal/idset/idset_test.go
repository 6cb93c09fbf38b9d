package idset

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// refOps computes intersection, union, difference, subset, and
// membership through a map[int32]struct{} reference — the
// implementation the kernels replace — for differential testing.
type refOps struct {
	a, b map[int32]struct{}
}

func newRef(a, b []int32) refOps {
	r := refOps{a: make(map[int32]struct{}), b: make(map[int32]struct{})}
	for _, x := range a {
		r.a[x] = struct{}{}
	}
	for _, x := range b {
		r.b[x] = struct{}{}
	}
	return r
}

func (r refOps) intersect() []int32 {
	var out []int32
	for x := range r.a {
		if _, ok := r.b[x]; ok {
			out = append(out, x)
		}
	}
	return sorted(out)
}

func (r refOps) union() []int32 {
	seen := make(map[int32]struct{})
	var out []int32
	for x := range r.a {
		seen[x] = struct{}{}
		out = append(out, x)
	}
	for x := range r.b {
		if _, dup := seen[x]; !dup {
			out = append(out, x)
		}
	}
	return sorted(out)
}

func (r refOps) diff() []int32 {
	var out []int32
	for x := range r.a {
		if _, ok := r.b[x]; !ok {
			out = append(out, x)
		}
	}
	return sorted(out)
}

func (r refOps) subset() bool {
	for x := range r.a {
		if _, ok := r.b[x]; !ok {
			return false
		}
	}
	return true
}

func sorted(s []int32) []int32 {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s) == 0 {
		return []int32{}
	}
	return s
}

// sortedSet turns arbitrary values into a strictly-ascending set.
func sortedSet(vals []int32) []int32 {
	m := make(map[int32]struct{})
	for _, v := range vals {
		m[v] = struct{}{}
	}
	out := make([]int32, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	return sorted(out)
}

func eqSlices(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestKernelsMatchMapReference is the differential property test: on
// random sorted inputs every kernel must agree with the map-based
// reference implementation.
func TestKernelsMatchMapReference(t *testing.T) {
	check := func(rawA, rawB []int32) bool {
		a, b := sortedSet(rawA), sortedSet(rawB)
		ref := newRef(a, b)
		if got := AppendIntersect(nil, a, b); !eqSlices(sorted(got), ref.intersect()) {
			t.Logf("intersect(%v, %v) = %v, want %v", a, b, got, ref.intersect())
			return false
		}
		if got := AppendUnion(nil, a, b); !eqSlices(sorted(got), ref.union()) {
			t.Logf("union(%v, %v) = %v, want %v", a, b, got, ref.union())
			return false
		}
		if got := AppendDiff(nil, a, b); !eqSlices(sorted(got), ref.diff()) {
			t.Logf("diff(%v, %v) = %v, want %v", a, b, got, ref.diff())
			return false
		}
		if got, want := IsSubset(a, b), ref.subset(); got != want {
			t.Logf("subset(%v, %v) = %v, want %v", a, b, got, want)
			return false
		}
		if got, want := IntersectCount(a, b), len(ref.intersect()); got != want {
			t.Logf("intersectCount(%v, %v) = %d, want %d", a, b, got, want)
			return false
		}
		for _, x := range append(append([]int32{}, a...), rawB...) {
			_, want := ref.a[x]
			if got := ContainsSorted(a, x); got != want {
				t.Logf("contains(%v, %d) = %v, want %v", a, x, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestKernelsGenericOverProperties exercises the kernels at a second
// Elem instantiation (uint64, the packed-property flavor).
func TestKernelsGenericOverProperties(t *testing.T) {
	a := []uint64{1 << 32, 2<<32 | 1, 3 << 40}
	b := []uint64{2<<32 | 1, 3 << 40, 9 << 50}
	if got := AppendIntersect(nil, a, b); len(got) != 2 || got[0] != 2<<32|1 {
		t.Errorf("intersect = %v", got)
	}
	if got := AppendUnion(nil, a, b); len(got) != 4 {
		t.Errorf("union = %v", got)
	}
	if !IsSubset([]uint64{3 << 40}, a) || IsSubset(a, b) {
		t.Error("subset misclassified")
	}
}

func TestSetOps(t *testing.T) {
	a := FromUnsorted([]int32{5, 1, 3, 1, 5})
	if got := a.String(); got != "[1 3 5]" {
		t.Errorf("String() = %q, want [1 3 5]", got)
	}
	if a.Len() != 3 || a.At(1) != 3 || a.Empty() {
		t.Errorf("unexpected set shape: %v", a)
	}
	b := FromSorted([]int32{1, 3})
	if !b.IsSubsetOf(a) || a.IsSubsetOf(b) {
		t.Error("IsSubsetOf misclassified")
	}
	if got := Intersect(a, b); !got.Equal(b) {
		t.Errorf("Intersect = %v", got)
	}
	if got := Union(a, b); !got.Equal(a) {
		t.Errorf("Union = %v", got)
	}
	if got := Difference(a, b); got.Len() != 1 || got.At(0) != 5 {
		t.Errorf("Difference = %v", got)
	}
	if j := Jaccard(a, b); j != 2.0/3.0 {
		t.Errorf("Jaccard = %v", j)
	}
	if j := Jaccard(Set{}, Set{}); j != 1 {
		t.Errorf("empty Jaccard = %v, want 1", j)
	}
	if !a.Contains(5) || a.Contains(4) {
		t.Error("Contains misclassified")
	}
}

// TestSetSharing pins the sharing contract: results equal to an input
// return that input's backing slice rather than allocating.
func TestSetSharing(t *testing.T) {
	a := FromSorted([]int32{1, 2, 3})
	b := FromSorted([]int32{2, 3})
	if got := Union(a, b); &got.Values()[0] != &a.Values()[0] {
		t.Error("Union(a, b⊆a) should share a")
	}
	if got := Intersect(a, b); &got.Values()[0] != &b.Values()[0] {
		t.Error("Intersect(a, b⊆a) should share b")
	}
	if got := Difference(a, FromSorted([]int32{9})); &got.Values()[0] != &a.Values()[0] {
		t.Error("Difference(a, disjoint) should share a")
	}
}

func TestFingerprintDistinguishesSets(t *testing.T) {
	// Equal sets → equal fingerprints.
	if Fingerprint64([]int32{1, 2, 3}) != FromUnsorted([]int32{3, 2, 1}).Fingerprint() {
		t.Error("equal sets must share a fingerprint")
	}
	// Small exhaustive neighborhood: no collisions among distinct sets.
	seen := make(map[uint64][]int32)
	var sets [][]int32
	for i := int32(0); i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			sets = append(sets, []int32{i}, []int32{i, j})
		}
	}
	sets = append(sets, []int32{})
	for _, s := range sets {
		fp := Fingerprint64(s)
		if prev, ok := seen[fp]; ok && !eqSlices(prev, s) {
			t.Fatalf("collision: %v and %v → %#x", prev, s, fp)
		}
		seen[fp] = s
	}
}

// TestAppendFingerprintIncremental: chunked hashing equals whole-slice
// hashing for every split point, so append-only callers can keep a
// running state instead of rehashing from scratch.
func TestAppendFingerprintIncremental(t *testing.T) {
	s := []uint64{7, 0, 1<<64 - 1, 42, 42, 9000}
	whole := Fingerprint64(s)
	for cut := 0; cut <= len(s); cut++ {
		h := AppendFingerprint64(FingerprintSeed, s[:cut])
		if got := AppendFingerprint64(h, s[cut:]); got != whole {
			t.Fatalf("split at %d: %#x != %#x", cut, got, whole)
		}
	}
	if AppendFingerprint64(whole, []uint64{1}) == whole {
		t.Error("appending must change the state")
	}
}

func TestInterner(t *testing.T) {
	forEachBucketing(t, func(t *testing.T, chained bool) {
		in := newTestInterner[uint64](chained)
		a := in.Intern([]uint64{1, 5, 9})
		b := in.Intern([]uint64{1, 5})
		if a == b {
			t.Fatal("distinct sets interned to the same ID")
		}
		if got := in.Intern([]uint64{1, 5, 9}); got != a {
			t.Errorf("re-intern = %d, want %d", got, a)
		}
		if got := in.Get(a); len(got) != 3 || got[2] != 9 {
			t.Errorf("Get(a) = %v", got)
		}
		if in.Len() != 2 {
			t.Errorf("Len = %d, want 2", in.Len())
		}
		if got := in.Lookup([]uint64{1, 5}); got != b {
			t.Errorf("Lookup = %d, want %d", got, b)
		}
		if got := in.Lookup([]uint64{7}); got != -1 {
			t.Errorf("Lookup(missing) = %d, want -1", got)
		}
		// The empty set interns like any other.
		e := in.Intern(nil)
		if in.Intern([]uint64{}) != e || len(in.Get(e)) != 0 {
			t.Error("empty-set interning not canonical")
		}
	})
}

// TestInternerCollisions pins the chained buckets: the same intern
// sequence gives the same IDs, lookups and views whether sets spread
// over fingerprint buckets or all share one, including after Reset.
func TestInternerCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	spread, chained := NewInterner[int32](), collideAll(NewInterner[int32]())
	for round := 0; round < 3; round++ {
		for i := 0; i < 400; i++ {
			raw := make([]int32, rng.Intn(5))
			for j := range raw {
				raw[j] = int32(rng.Intn(9))
			}
			set := sortedSet(raw)
			a, b := spread.Intern(set), chained.Intern(set)
			if a != b {
				t.Fatalf("round %d: %v interned to %d with buckets, %d chained", round, set, a, b)
			}
			if !eqSlices(chained.Get(b), set) {
				t.Fatalf("round %d: chained Get(%d) = %v, want %v", round, b, chained.Get(b), set)
			}
			probe := sortedSet([]int32{int32(rng.Intn(12)), int32(rng.Intn(12))})
			if a, b := spread.Lookup(probe), chained.Lookup(probe); a != b {
				t.Fatalf("round %d: Lookup(%v) = %d with buckets, %d chained", round, probe, a, b)
			}
		}
		if spread.Len() != chained.Len() {
			t.Fatalf("round %d: Len %d with buckets, %d chained", round, spread.Len(), chained.Len())
		}
		spread.Reset()
		chained.Reset()
		if chained.Len() != 0 || chained.Lookup(nil) != -1 {
			t.Fatalf("Reset left %d sets behind", chained.Len())
		}
	}
}

// TestInternerViewsSurviveGrowth pins the arena-growth contract: views
// handed out before the arena reallocates still read the right data.
func TestInternerViewsSurviveGrowth(t *testing.T) {
	in := NewInterner[uint64]()
	id := in.Intern([]uint64{42, 43})
	early := in.Get(id)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		in.Intern([]uint64{rng.Uint64() | 1<<63, rng.Uint64() | 1<<62, uint64(i)<<8 | 7})
	}
	if early[0] != 42 || early[1] != 43 {
		t.Fatalf("early view corrupted: %v", early)
	}
	if late := in.Get(id); len(late) != 2 || late[0] != 42 {
		t.Fatalf("late view wrong: %v", late)
	}
}

// TestInternIDEquality is the interning half of the differential
// property: for random sorted sets, ID equality must coincide with
// set equality.
func TestInternIDEquality(t *testing.T) {
	in := NewInterner[int32]()
	type entry struct {
		set []int32
		id  SetID
	}
	var entries []entry
	check := func(raw []int32) bool {
		set := sortedSet(raw)
		id := in.Intern(set)
		for _, e := range entries {
			if (e.id == id) != eqSlices(e.set, set) {
				t.Logf("id equality diverged: %v (id %d) vs %v (id %d)", e.set, e.id, set, id)
				return false
			}
		}
		entries = append(entries, entry{set: set, id: id})
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func ExampleSet_String() {
	fmt.Println(FromUnsorted([]int32{3, 1, 2}))
	// Output: [1 2 3]
}
