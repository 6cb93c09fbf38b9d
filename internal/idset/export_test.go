package idset

import "testing"

// collideAll clears in's fingerprint mask so every set lands in one
// bucket: each Intern and Lookup then walks the whole collision chain,
// and only exact verification tells sets apart. in must be empty.
func collideAll[E Elem](in *Interner[E]) *Interner[E] {
	if in.Len() != 0 {
		panic("idset: collideAll on a non-empty interner")
	}
	in.fpMask = 0
	return in
}

// forEachBucketing runs body twice: with real fingerprint buckets and
// with every fingerprint forced into one chained bucket. newInterner
// builds an empty interner in the subtest's layout.
func forEachBucketing(t *testing.T, body func(t *testing.T, chained bool)) {
	for _, chained := range []bool{false, true} {
		name := "buckets=fingerprint"
		if chained {
			name = "buckets=one"
		}
		t.Run(name, func(t *testing.T) { body(t, chained) })
	}
}

// newTestInterner returns an empty interner, chained into one bucket
// when chained is set.
func newTestInterner[E Elem](chained bool) *Interner[E] {
	in := NewInterner[E]()
	if chained {
		collideAll(in)
	}
	return in
}
