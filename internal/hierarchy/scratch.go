package hierarchy

import (
	"midas/internal/fact"
	"midas/internal/idset"
)

// Scratch is the reusable working state of lattice builds: everything a
// Build needs that never escapes it. The multi-source framework runs one
// build per web source — thousands per discovery — so each of its
// workers owns one Scratch and hands it to every Builder it runs,
// instead of re-allocating this scaffolding per source.
//
// What a Build returns stays per build: the nodes (slab-allocated), their
// entity sets and links, and the property-set interner whose arena
// backs every Node.Props view all escape through the Hierarchy (and
// core.Result), so none of them lives here. A Scratch retains no node
// pointer once its Build returns.
//
// The zero value is ready to use. A Scratch is not safe for concurrent
// use: one per goroutine, one Build at a time.
type Scratch struct {
	// propFreq counts, per property, the table rows carrying it.
	propFreq map[fact.Property]int32
	// nodes indexes the build's nodes by interned property-set ID; IDs
	// are dense within a build, so a slice indexes them directly.
	nodes []*Node
	// levels[l] lists the nodes with l properties: in creation order
	// until the sweep reaches l, then sorted and filtered in place.
	levels [][]*Node
	// Per-level effort tallies, reported to Obs when the build ends.
	created, removed, invalid []int64

	combos  odometer
	trimIdx []int
	trimmed []fact.Property
	// workers[w] is the private state of within-source worker w.
	workers []workerScratch
}

// workerScratch is one within-source worker's private buffers. Worker 0
// is the goroutine running Build; the others exist only while a phase
// shards.
type workerScratch struct {
	// unionA and unionB are the ping-pong buffers of entity-set unions.
	unionA, unionB []int32
	// props backs the shared-core and drop-one parent property sets.
	props []fact.Property
	// lb collects a node's lower-bound slice set while it is scored;
	// seen[id] == stamp marks the node with that set ID as collected.
	lb    []*Node
	seen  []uint32
	stamp uint32
	// invalid counts the nodes this worker marked low-profit in the
	// current scoring phase.
	invalid int64
	gen     genLocal
}

// genOp records one parent link operation discovered by a worker: the
// worker-local interned ID of the parent property set and the child
// node. Replaying ops in recorded order during the merge reproduces the
// sequential build's exact link order (Children and Parents slices
// included), because chunks are contiguous and replayed in index order.
type genOp struct {
	id    idset.SetID
	child *Node
}

// genLocal is one worker's private parent-generation state: a private
// interner for the parent property sets it discovers, the link ops in
// discovery order, and the pending entity rows grouped per local set.
type genLocal struct {
	in      *idset.Interner[fact.Property]
	ops     []genOp
	pending [][]int32
}

// reset empties g for a new parent-generation phase, keeping storage.
func (g *genLocal) reset() {
	if g.in == nil {
		g.in = idset.NewInterner[fact.Property]()
	}
	g.in.Reset()
	clear(g.ops)
	g.ops = g.ops[:0]
	g.pending = g.pending[:0]
}

// pendingFor returns the pending rows of local set id, opening an empty
// list (reusing an earlier phase's storage) the first time id is seen.
func (g *genLocal) pendingFor(id idset.SetID) *[]int32 {
	if int(id) == len(g.pending) {
		if len(g.pending) < cap(g.pending) {
			g.pending = g.pending[:id+1]
			g.pending[id] = g.pending[id][:0]
		} else {
			g.pending = append(g.pending, nil)
		}
	}
	return &g.pending[id]
}

// growWorkers makes room for n workers' private state. A phase grows
// the set before any of its workers starts, so workers index it without
// synchronization.
func (s *Scratch) growWorkers(n int) {
	if n > len(s.workers) {
		s.workers = append(s.workers, make([]workerScratch, n-len(s.workers))...)
	}
}

// level returns the node list of level l, opening empty levels up to it.
func (s *Scratch) level(l int) *[]*Node {
	for len(s.levels) <= l {
		if len(s.levels) < cap(s.levels) {
			s.levels = s.levels[:len(s.levels)+1]
		} else {
			s.levels = append(s.levels, nil)
		}
	}
	return &s.levels[l]
}

// bump adds by to tally[l], growing the tally with zeros as needed.
func bump(tally []int64, l int, by int64) []int64 {
	for len(tally) <= l {
		tally = append(tally, 0)
	}
	tally[l] += by
	return tally
}

// reset readies the scratch for a build over table.
func (s *Scratch) reset(table *fact.Table) {
	if s.propFreq == nil {
		s.propFreq = make(map[fact.Property]int32)
	}
	clear(s.propFreq)
	for i := range table.Entities {
		for _, p := range table.Entities[i].Props {
			s.propFreq[p]++
		}
	}
	s.created, s.removed, s.invalid = s.created[:0], s.removed[:0], s.invalid[:0]
}

// release drops every node pointer the build left in the scratch, so a
// Scratch kept between builds does not pin the last hierarchy, and
// truncates the buffers for the next build.
func (s *Scratch) release() {
	clear(s.nodes)
	s.nodes = s.nodes[:0]
	for l := range s.levels {
		clear(s.levels[l])
		s.levels[l] = s.levels[l][:0]
	}
	s.levels = s.levels[:0]
	for w := range s.workers {
		ws := &s.workers[w]
		// lb is re-sliced per scored node, so earlier, longer sets left
		// pointers beyond its length.
		clear(ws.lb[:cap(ws.lb)])
		clear(ws.gen.ops)
	}
}

// odometer enumerates an entity's initial-slice property combinations —
// one value per predicate, in lexicographic order with the first
// predicate most significant — over one reused buffer, so no
// combination is allocated: each is interned as it is produced.
type odometer struct {
	props  []fact.Property
	bounds []int // bounds[g] .. bounds[g+1] is predicate g's value run
	digits []int // digits[g] is the offset of predicate g's current value
	combo  []fact.Property
	fresh  bool // no combination produced yet
}

// start begins enumerating the combinations of props, which must be
// sorted (grouping each predicate's values contiguously). It returns
// how many combinations to take — all of them, or the first limit when
// there are more — and whether limit capped them.
func (o *odometer) start(props []fact.Property, limit int) (n int, capped bool) {
	o.props, o.fresh = props, true
	o.bounds, o.digits, o.combo = o.bounds[:0], o.digits[:0], o.combo[:0]
	if len(props) == 0 {
		return 0, false
	}
	for i := range props {
		if i == 0 || props[i].Pred() != props[i-1].Pred() {
			o.bounds = append(o.bounds, i)
			o.digits = append(o.digits, 0)
			o.combo = append(o.combo, props[i])
		}
	}
	o.bounds = append(o.bounds, len(props))
	product := 1
	for g := range o.digits {
		size := o.bounds[g+1] - o.bounds[g]
		if product > limit/size { // product·size > limit, without overflow
			return max(limit, 0), true
		}
		product *= size
	}
	return product, false
}

// next returns the next combination. The slice is reused by the
// following call; callers must copy (or intern) it.
func (o *odometer) next() []fact.Property {
	if o.fresh {
		o.fresh = false
		return o.combo
	}
	for g := len(o.digits) - 1; g >= 0; g-- {
		o.digits[g]++
		if i := o.bounds[g] + o.digits[g]; i < o.bounds[g+1] {
			o.combo[g] = o.props[i]
			break
		}
		o.digits[g] = 0
		o.combo[g] = o.props[o.bounds[g]]
	}
	return o.combo
}
