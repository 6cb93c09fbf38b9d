package idset

// SetID is a dense identifier for an interned set: IDs are assigned
// 0, 1, 2, … in first-intern order, so they index external arrays
// directly and compare in O(1) — ID equality is set equality.
type SetID int32

// Interner deduplicates sorted sets into a shared append-only arena and
// assigns each distinct set a dense SetID. Lookups are fingerprint-
// bucketed with exact verification, so fingerprint collisions cost a
// comparison, never a wrong ID. Not safe for concurrent use.
type Interner[E Elem] struct {
	// byFP maps a fingerprint to the newest set interned under it; older
	// sets with the same fingerprint chain through next, so a bucket
	// costs no allocation of its own.
	byFP map[uint64]SetID
	// next[id] is the set interned under id's fingerprint before id, or
	// -1 at the end of the chain.
	next []SetID
	// offs[id] .. offs[id+1] delimit set id in the arena.
	offs  []uint32
	arena []E
	// fpMask is ANDed into every fingerprint. It is all ones; the
	// collision tests clear it to chain every set into one bucket.
	fpMask uint64
}

// NewInterner returns an empty interner.
func NewInterner[E Elem]() *Interner[E] {
	return &Interner[E]{
		byFP:   make(map[uint64]SetID),
		offs:   []uint32{0},
		fpMask: ^uint64(0),
	}
}

// Intern returns the ID of set, interning a copy on first sight. set
// must be sorted strictly ascending; it is not retained, so callers may
// pass scratch buffers.
func (in *Interner[E]) Intern(set []E) SetID {
	fp := Fingerprint64(set) & in.fpMask
	head, ok := in.byFP[fp]
	if ok {
		if id := in.find(head, set); id >= 0 {
			return id
		}
	} else {
		head = -1
	}
	id := SetID(len(in.offs) - 1)
	in.arena = append(in.arena, set...)
	in.offs = append(in.offs, uint32(len(in.arena)))
	in.next = append(in.next, head)
	in.byFP[fp] = id
	return id
}

// Lookup returns the ID of set without interning it, or -1 when the set
// has not been interned.
func (in *Interner[E]) Lookup(set []E) SetID {
	head, ok := in.byFP[Fingerprint64(set)&in.fpMask]
	if !ok {
		return -1
	}
	return in.find(head, set)
}

// find walks the fingerprint chain starting at id for set, returning -1
// when no member equals it.
func (in *Interner[E]) find(id SetID, set []E) SetID {
	for ; id >= 0; id = in.next[id] {
		if Equal(in.get(id), set) {
			return id
		}
	}
	return -1
}

// Get returns the interned set as a view into the arena, sorted
// ascending. Callers must not mutate it. Views stay valid across later
// Intern calls (arena growth copies, it never moves live data under a
// returned view's backing array), but not across Reset.
func (in *Interner[E]) Get(id SetID) []E { return in.get(id) }

func (in *Interner[E]) get(id SetID) []E {
	return in.arena[in.offs[id]:in.offs[id+1]:in.offs[id+1]]
}

// Len returns the number of distinct sets interned.
func (in *Interner[E]) Len() int { return len(in.offs) - 1 }

// Reset empties the interner and keeps its storage for the next round
// of interning. Every view returned by Get before the reset is
// invalidated: the arena is overwritten in place.
func (in *Interner[E]) Reset() {
	clear(in.byFP)
	in.next = in.next[:0]
	in.offs = in.offs[:1]
	in.arena = in.arena[:0]
}

// Merge interns every set of src into in, in src's ID order, and
// returns the rebase table: remap[i] is in's SetID for src's SetID i.
// Sets in already holds keep their existing ID, so merging is
// idempotent and order-stable. src is not modified.
//
// This is the bridge for deterministic parallel construction: workers
// intern into private Interners without synchronization, and a
// single-threaded merge rebases each worker's dense local IDs onto the
// shared interner. Because local IDs are assigned in first-intern
// order, replaying a worker's operations through remap reproduces the
// exact sequential interning order.
func (in *Interner[E]) Merge(src *Interner[E]) []SetID {
	remap := make([]SetID, src.Len())
	for id := range remap {
		remap[id] = in.Intern(src.get(SetID(id)))
	}
	return remap
}
