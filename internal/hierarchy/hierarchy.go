// Package hierarchy implements step 1 of MIDASalg: bottom-up
// construction and pruning of the slice hierarchy (Section III-A-1).
//
// Nodes are candidate slices keyed by their property set; the lattice
// edges connect a slice to the slices obtained by removing one property
// (its parents — coarser, more general) or adding properties (its
// children — finer). Construction starts from the initial slices implied
// by the entities of a fact table and proceeds level by level toward the
// root, Apriori-style, applying two prunings:
//
//   - canonicity (Proposition 12): a slice is canonical iff it is an
//     initial slice or has at least two canonical children; non-canonical
//     slices select the same entities as one of their children and are
//     removed, re-linking their children to their parents;
//   - profit lower bounds: for each slice S a set S_LB(S) of descendants
//     with total profit f_LB(S) ≥ 0 is maintained; S is marked invalid
//     (low-profit) when f({S}) is negative or below the profit achievable
//     by its subtree.
//
// Within one source the sweep is parallel: each level's parent
// generation, entity-set finalization, and profit scoring shard across
// the worker budget of Options (see parallel.go), with output
// guaranteed bit-identical to the sequential build. The traversal of
// the trimmed hierarchy (step 2) lives in package core.
package hierarchy

import (
	"cmp"
	"slices"
	"time"

	"midas/internal/fact"
	"midas/internal/idset"
	"midas/internal/obs"
	"midas/internal/slice"
)

// Node is a candidate slice in the hierarchy.
type Node struct {
	// Props is the defining property set C, sorted ascending. It is a
	// view into the builder's property-set arena; nodes over the same
	// set share storage. Do not mutate.
	Props []fact.Property
	// Entities holds the local row indexes into the builder's fact table
	// whose rows carry every property in Props.
	Entities idset.Set
	// Facts and NewFacts are |Π*| and |Π* \ E| for this node.
	Facts    int
	NewFacts int
	// Profit is f({S}) including the source's crawl term.
	Profit float64
	// FLB is the profit lower bound achievable by the subtree, ≥ 0.
	FLB float64
	// SLB is the slice set realizing FLB (nil when FLB comes from the
	// empty set or from the node itself — see SLBSelf).
	SLB []*Node
	// SLBSelf records that S_LB(S) = {S}.
	SLBSelf bool

	// Initial marks slices formed directly from an entity's properties.
	Initial bool
	// Canonical marks slices that survive Proposition 12.
	Canonical bool
	// Valid is false for slices pruned as low-profit. Invalid slices stay
	// in the hierarchy for structure but are never selected.
	Valid bool
	// Covered is used by the top-down traversal (Algorithm 1).
	Covered bool

	Children []*Node
	Parents  []*Node

	removed bool
	// set is the interned ID of Props in the builder's interner; it keys
	// the node within its lattice level.
	set idset.SetID
	// childIDs mirrors Children as a sorted slice of the children's
	// interned property-set IDs. Node ↔ ID is one-to-one within a
	// build, so ID membership is child membership; the builder keeps
	// the mirror in sync through addChild/delChild.
	childIDs []idset.SetID
	// pending accumulates entity indexes before finalization.
	pending []int32
}

// Level returns the number of properties defining the node.
func (n *Node) Level() int { return len(n.Props) }

// HasChild reports whether c is a direct child of n. Property-set IDs
// identify nodes uniquely within a build, so the check is a binary
// search over the sorted child-ID mirror rather than an O(children)
// pointer scan — the canonicity sweep calls this on the huge fan-in
// nodes near the root (see TestHasChildSublinear).
func (n *Node) HasChild(c *Node) bool {
	_, ok := slices.BinarySearch(n.childIDs, c.set)
	return ok
}

// addChild links c under p, keeping the sorted child-ID mirror in sync.
// Callers guard with !p.HasChild(c), so the mirror never holds
// duplicates.
func addChild(p, c *Node) {
	p.Children = append(p.Children, c)
	i, _ := slices.BinarySearch(p.childIDs, c.set)
	p.childIDs = slices.Insert(p.childIDs, i, c.set)
}

// delChild unlinks c from p's children and the ID mirror.
func delChild(p, c *Node) {
	p.Children = deleteNode(p.Children, c)
	if i, ok := slices.BinarySearch(p.childIDs, c.set); ok {
		p.childIDs = slices.Delete(p.childIDs, i, i+1)
	}
}

// Hierarchy is the trimmed slice lattice of one web source.
type Hierarchy struct {
	// Levels[l] lists the surviving (canonical) nodes with l properties,
	// for l in [1, MaxLevel]. Levels[0] is unused.
	Levels   [][]*Node
	MaxLevel int
	Stats    Stats
}

// Stats reports construction effort, used by the ablation benches.
type Stats struct {
	NodesCreated   int // total lattice nodes materialized
	NodesRemoved   int // pruned as non-canonical
	NodesInvalid   int // marked low-profit
	InitialSlices  int
	EntitiesCapped int // entities whose property set was trimmed
	CombosCapped   int // entities whose value combinations were capped
}

// Nodes returns all surviving nodes, top level (fewest properties) first.
func (h *Hierarchy) Nodes() []*Node {
	var out []*Node
	for l := 1; l <= h.MaxLevel; l++ {
		out = append(out, h.Levels[l]...)
	}
	return out
}

// Builder constructs hierarchies over one fact table.
type Builder struct {
	Table *fact.Table
	Cost  slice.CostModel

	// MaxPropsPerEntity trims an entity's property set before forming its
	// initial slices, keeping the properties most frequent in the table
	// (frequent properties are the ones shared across entities and hence
	// able to form multi-entity slices; rare ones only produce
	// singletons). 0 means DefaultMaxPropsPerEntity.
	MaxPropsPerEntity int
	// MaxInitCombos caps the number of initial slices produced for one
	// entity with multi-valued predicates (the cross product of one
	// property per predicate). 0 means DefaultMaxInitCombos.
	MaxInitCombos int

	// DisableCanonicalPrune and DisableProfitPrune switch off the two
	// pruning strategies, for ablation studies.
	DisableCanonicalPrune bool
	DisableProfitPrune    bool

	// Options bounds Build's within-source parallelism (see parallel.go).
	// The zero value parallelizes up to GOMAXPROCS with a private
	// budget; output is identical for every setting.
	Options Options

	// Obs receives construction metrics (nodes generated and pruned per
	// lattice level, mirroring the paper's Proposition 12 effectiveness
	// tables); nil falls back to the process-wide obs.Default().
	Obs *obs.Registry

	// Scratch is the build's reusable working state. A caller running
	// many builds in turn (a framework worker) passes the same Scratch to
	// each; when nil, Build allocates one and keeps it here.
	Scratch *Scratch

	entFacts []int32 // per-entity fact counts
	entNew   []int32 // per-entity new-fact counts
	// props interns node property sets; it is distinct from the table's
	// interner because lattice nodes carry subsets no row has.
	props *idset.Interner[fact.Property]
	// slab is the unused tail of the current node allocation chunk.
	slab  []Node
	stats *Stats
}

// Default caps. Entities in real extractions have a handful of
// predicates; the caps only engage on adversarial inputs and keep the
// lattice polynomial.
const (
	DefaultMaxPropsPerEntity = 12
	DefaultMaxInitCombos     = 64
)

// Build constructs and prunes the hierarchy for the builder's table.
// extra seeds additional initial slices (used by the multi-source
// framework to start from the slices detected in child sources); each
// seed is a property set with the entity rows that carry it. Seeds that
// duplicate an existing node merge into it.
func (b *Builder) Build(extra []Seed) *Hierarchy {
	if b.MaxPropsPerEntity == 0 {
		b.MaxPropsPerEntity = DefaultMaxPropsPerEntity
	}
	if b.MaxInitCombos == 0 {
		b.MaxInitCombos = DefaultMaxInitCombos
	}
	if b.Scratch == nil {
		b.Scratch = new(Scratch)
	}
	s := b.Scratch
	defer s.release()
	b.prepare()

	reg := b.Obs.OrDefault()
	h := &Hierarchy{}
	b.stats = &h.Stats
	defer b.record()

	b.seedInitial()
	for _, sd := range extra {
		if len(sd.Props) == 0 {
			continue
		}
		n := b.getNode(sd.Props)
		n.Initial = true
		n.pending = append(n.pending, sd.Entities...)
	}

	maxLevel := len(s.levels) - 1
	for maxLevel > 0 && len(s.levels[maxLevel]) == 0 {
		maxLevel--
	}
	if maxLevel <= 0 {
		h.Levels = make([][]*Node, 1)
		return h
	}
	h.MaxLevel = maxLevel
	h.Levels = make([][]*Node, maxLevel+1)

	levelTimer := reg.TimerVec("hierarchy/level/build", "level")
	workersGauge := reg.Gauge("hierarchy/level_workers")

	// Finalize the deepest level's entity sets.
	b.finalizeLevel(s.levels[maxLevel])

	// Bottom-up sweep: levels from finest (most properties) to coarsest.
	// Sweeping level l adds nodes only to coarser levels and removes
	// nodes only from l, so l's list is complete when the sweep reaches
	// it and final once it moves on.
	for l := maxLevel; l >= 1; l-- {
		levelStart := time.Now()
		workers := 1
		cur := s.levels[l]
		slices.SortFunc(cur, compareNodes)

		// (1) Construct parents from every node at level l, sharded
		// across the worker budget, then finalize the entity sets the
		// new pendings landed on.
		if l >= 2 {
			workers = max(workers, b.generateParents(cur))
			workers = max(workers, b.finalizeLevel(s.levels[l-1]))
		}

		// (2) Prune non-canonical slices at level l. Sequential: remove
		// re-links across levels, and its outcome depends on the
		// deterministic sorted order of cur.
		for _, n := range cur {
			n.Canonical = b.isCanonical(n)
			if !n.Canonical && !b.DisableCanonicalPrune {
				b.remove(n)
				h.Stats.NodesRemoved++
				s.removed = bump(s.removed, l, 1)
			}
		}
		cur = slices.DeleteFunc(cur, func(n *Node) bool { return n.removed })

		// (3) Evaluate profit and the lower bound; mark low-profit
		// slices invalid. Children are deeper and immutable by now, so
		// scoring shards across workers.
		invalid, scoreWorkers := b.scoreLevel(cur)
		workers = max(workers, scoreWorkers)
		if invalid > 0 {
			h.Stats.NodesInvalid += int(invalid)
			s.invalid = bump(s.invalid, l, invalid)
		}
		h.Levels[l] = cur

		levelTimer.With(obs.IntLabel(l)).Observe(time.Since(levelStart))
		workersGauge.Set(float64(workers))
	}

	// The surviving levels are views of the scratch's level lists; copy
	// them into one exact allocation the hierarchy owns.
	total := 0
	for _, lv := range h.Levels {
		total += len(lv)
	}
	all := make([]*Node, total)
	off := 0
	for l := 1; l <= maxLevel; l++ {
		n := copy(all[off:], h.Levels[l])
		h.Levels[l] = all[off : off+n : off+n]
		off += n
	}
	return h
}

// nodeByID returns the node of interned property set id, creating it on
// first sight.
func (b *Builder) nodeByID(id idset.SetID) *Node {
	s := b.Scratch
	if int(id) >= len(s.nodes) {
		s.nodes = append(s.nodes, make([]*Node, b.props.Len()-len(s.nodes))...)
	}
	if n := s.nodes[id]; n != nil {
		return n
	}
	// The node keeps the interned arena view of its property set, not
	// any caller's (possibly scratch) slice.
	props := b.props.Get(id)
	n := b.newNode()
	n.Props, n.set, n.Valid = props, id, true
	s.nodes[id] = n
	lv := s.level(len(props))
	*lv = append(*lv, n)
	b.stats.NodesCreated++
	s.created = bump(s.created, len(props), 1)
	return n
}

// getNode returns the node over props, creating it on first sight.
func (b *Builder) getNode(props []fact.Property) *Node {
	return b.nodeByID(b.props.Intern(props))
}

// newNode hands out a zeroed node from the build's slab. Chunks double
// with the node count (up to maxSlab), so a build makes a logarithmic
// number of node allocations and the many one-node builds of leaf
// sources waste nothing.
func (b *Builder) newNode() *Node {
	if len(b.slab) == 0 {
		b.slab = make([]Node, min(max(b.stats.NodesCreated, 1), maxSlab))
	}
	n := &b.slab[0]
	b.slab = b.slab[1:]
	return n
}

// maxSlab caps a node slab chunk, in nodes.
const maxSlab = 1024

// generateParents runs step (1) of the sweep for one level: every node
// contributes either the node over its shared-property core or its
// drop-one-property subsets as parents (see emitParents). With one
// worker it links directly into the build's nodes; with several,
// workers record into private scratch and a single-threaded merge
// rebases each private interner onto the shared one
// (idset.Interner.Merge) and replays the ops in order. Returns the
// worker count used.
func (b *Builder) generateParents(cur []*Node) int {
	ws := b.acquireWorkers(len(cur), genMinChunk)
	if ws.n == 1 {
		b.emitParents(cur, &b.Scratch.workers[0], func(props []fact.Property, n *Node) {
			p := b.getNode(props)
			link(p, n)
			p.pending = append(p.pending, n.Entities.Values()...)
		})
		return 1
	}
	ws.run(b, cur, (*Builder).recordParents)

	// Deterministic merge, single-threaded: worker order × op order is
	// the sequential order.
	for w := range ws.n {
		g := &b.Scratch.workers[w].gen
		if g.in.Len() == 0 {
			continue
		}
		remap := b.props.Merge(g.in)
		nodes := make([]*Node, g.in.Len())
		for _, op := range g.ops {
			p := nodes[op.id]
			if p == nil {
				p = b.nodeByID(remap[op.id])
				nodes[op.id] = p
			}
			link(p, op.child)
		}
		for id, pend := range g.pending {
			if len(pend) > 0 {
				nodes[id].pending = append(nodes[id].pending, pend...)
			}
		}
	}
	return ws.n
}

// recordParents is one parallel worker's share of generateParents: it
// interns the parents of chunk into the worker's private interner and
// records the link ops and pending rows for the merge.
func (b *Builder) recordParents(w int, chunk []*Node) {
	ws := &b.Scratch.workers[w]
	g := &ws.gen
	g.reset()
	b.emitParents(chunk, ws, func(props []fact.Property, n *Node) {
		id := g.in.Intern(props)
		g.ops = append(g.ops, genOp{id: id, child: n})
		pend := g.pendingFor(id)
		*pend = append(*pend, n.Entities.Values()...)
	})
}

// link makes c a child of p unless it already is.
func link(p, c *Node) {
	if !p.HasChild(c) {
		addChild(p, c)
		c.Parents = append(c.Parents, p)
	}
}

// emitParents enumerates the parent candidates of nodes in
// deterministic order. The worker's props buffer backs the shared-core
// and drop-one property sets and is reused across nodes — interners
// copy sets on first sight, so it never escapes.
//
// A property held by a single entity can never occur in a multi-entity
// canonical slice, so every subset mixing unique and shared properties
// is doomed: it has exactly one child chain and would be built only to
// be removed as non-canonical, with its children re-linked to the
// shared-property ancestors. Nodes carrying unique properties therefore
// link directly to the node over their shared-property core (possibly
// several levels up), which is exactly the structure the construct-
// then-remove sequence converges to — without materializing the 2^k
// mixed subsets of isolated entities.
func (b *Builder) emitParents(nodes []*Node, ws *workerScratch, emit func([]fact.Property, *Node)) {
	for _, n := range nodes {
		core := b.sharedCore(n.Props, &ws.props)
		if len(core) < len(n.Props) {
			if len(core) > 0 {
				emit(core, n)
			}
			continue
		}
		for i := range n.Props {
			p := append(ws.props[:0], n.Props[:i]...)
			p = append(p, n.Props[i+1:]...)
			ws.props = p
			emit(p, n)
		}
	}
}

// finalizeLevel folds pending entities for every listed node, sharding
// across the worker budget when the level is large. Each node's result
// depends only on its own pending set, so the outcome is independent of
// the sharding. Returns the worker count used.
func (b *Builder) finalizeLevel(nodes []*Node) int {
	ws := b.acquireWorkers(len(nodes), finalizeMinChunk)
	ws.run(b, nodes, (*Builder).finalizeChunk)
	return ws.n
}

// finalizeChunk is worker w's share of finalizeLevel.
func (b *Builder) finalizeChunk(w int, chunk []*Node) {
	ws := &b.Scratch.workers[w]
	for _, n := range chunk {
		b.finalizeInto(n, ws)
	}
}

// scoreLevel scores every node and applies the low-profit marking,
// sharded across the worker budget; per-node scoring reads only deeper
// (already immutable) nodes. Returns the number of nodes marked
// invalid and the worker count used.
func (b *Builder) scoreLevel(nodes []*Node) (invalid int64, workers int) {
	ws := b.acquireWorkers(len(nodes), scoreMinChunk)
	for w := range ws.n {
		sw := &b.Scratch.workers[w]
		sw.invalid = 0
		// Lower-bound sets hold deeper nodes, all created by now, so
		// the marks cover every ID the phase can see.
		if grow := b.props.Len() - len(sw.seen); grow > 0 {
			sw.seen = append(sw.seen, make([]uint32, grow)...)
		}
	}
	ws.run(b, nodes, (*Builder).scoreChunk)
	for w := range ws.n {
		invalid += b.Scratch.workers[w].invalid
	}
	return invalid, ws.n
}

// scoreChunk is worker w's share of scoreLevel.
func (b *Builder) scoreChunk(w int, chunk []*Node) {
	ws := &b.Scratch.workers[w]
	for _, n := range chunk {
		b.score(n, ws)
		if !b.DisableProfitPrune && (n.Profit < 0 || n.Profit < n.FLB) {
			n.Valid = false
			ws.invalid++
		}
	}
}

// record publishes one build's effort tallies to the observability
// registry: aggregate totals plus per-lattice-level breakdowns of nodes
// generated, pruned by canonicity (Proposition 12), and pruned by the
// profit lower bound — the quantities behind the paper's Section V
// pruning-effectiveness tables. The breakdowns are counter vectors
// labeled by lattice level (bounded by MaxPropsPerEntity, so the series
// space stays small), replacing the name-mangled per-level counters of
// the first observability pass.
func (b *Builder) record() {
	st := b.stats
	reg := b.Obs.OrDefault()
	reg.Counter("hierarchy/builds").Inc()
	reg.Counter("hierarchy/nodes_generated").Add(int64(st.NodesCreated))
	reg.Counter("hierarchy/pruned_canonicity").Add(int64(st.NodesRemoved))
	reg.Counter("hierarchy/pruned_profit_bound").Add(int64(st.NodesInvalid))
	reg.Counter("hierarchy/initial_slices").Add(int64(st.InitialSlices))
	reg.Counter("hierarchy/entities_capped").Add(int64(st.EntitiesCapped))
	reg.Counter("hierarchy/combos_capped").Add(int64(st.CombosCapped))
	perLevel := func(name string, tally []int64) {
		vec := reg.CounterVec(name, "level")
		for l, n := range tally {
			if n > 0 {
				vec.With(obs.IntLabel(l)).Add(n)
			}
		}
	}
	perLevel("hierarchy/level/nodes_generated", b.Scratch.created)
	perLevel("hierarchy/level/pruned_canonicity", b.Scratch.removed)
	perLevel("hierarchy/level/pruned_profit_bound", b.Scratch.invalid)
}

// Seed is an externally supplied initial slice (from a child web source).
type Seed struct {
	Props    []fact.Property
	Entities []int32 // table row indexes
}

// prepare readies the per-build state and the scratch for b.Table.
func (b *Builder) prepare() {
	t := b.Table
	n := len(t.Entities)
	b.props = idset.NewInterner[fact.Property]()
	b.slab = nil
	counts := make([]int32, 2*n)
	b.entFacts, b.entNew = counts[:n:n], counts[n:]
	for i := range t.Entities {
		b.entFacts[i] = int32(len(t.Entities[i].Props))
		b.entNew[i] = int32(t.Entities[i].NewCount)
	}
	b.Scratch.reset(t)
}

// seedInitial creates the initial slices for every entity: one slice per
// combination of properties taking one value per predicate.
func (b *Builder) seedInitial() {
	st := b.stats
	odo := &b.Scratch.combos
	for ei := range b.Table.Entities {
		props := b.Table.Entities[ei].Props
		if len(props) > b.MaxPropsPerEntity {
			props = b.trimProps(props)
			st.EntitiesCapped++
		}
		combos, capped := odo.start(props, b.MaxInitCombos)
		if capped {
			st.CombosCapped++
		}
		for range combos {
			n := b.getNode(odo.next())
			n.Initial = true
			n.pending = append(n.pending, int32(ei))
		}
		st.InitialSlices += combos
	}
}

// trimProps keeps the MaxPropsPerEntity most frequent properties of the
// entity (ties broken by property order for determinism). The result is
// a scratch buffer, valid until the next call.
func (b *Builder) trimProps(props []fact.Property) []fact.Property {
	s := b.Scratch
	idx := s.trimIdx[:0]
	for i := range props {
		idx = append(idx, i)
	}
	slices.SortFunc(idx, func(x, y int) int {
		fx, fy := s.propFreq[props[x]], s.propFreq[props[y]]
		if fx != fy {
			return cmp.Compare(fy, fx)
		}
		return cmp.Compare(props[x], props[y])
	})
	idx = idx[:b.MaxPropsPerEntity]
	slices.Sort(idx)
	out := s.trimmed[:0]
	for _, j := range idx {
		out = append(out, props[j])
	}
	s.trimIdx, s.trimmed = idx, out
	return out
}

// finalizeInto folds a node's pending entities into its entity set
// (sort, dedup, union with the existing set) and refreshes its fact
// counts. Safe to call repeatedly; callers on different nodes may run
// concurrently as long as each carries its own worker scratch. The
// union runs through the worker's buffer; the node's set is always
// backed by a fresh exact-size slice.
func (b *Builder) finalizeInto(n *Node, ws *workerScratch) {
	if len(n.pending) == 0 {
		return
	}
	slices.Sort(n.pending)
	dedup := slices.Compact(n.pending)
	merged := dedup
	if !n.Entities.Empty() {
		ws.unionA = idset.AppendUnion(ws.unionA[:0], n.Entities.Values(), dedup)
		merged = ws.unionA
	}
	ents := slices.Clone(merged)
	n.Entities = idset.FromSorted(ents)
	n.pending = n.pending[:0]
	n.Facts, n.NewFacts = 0, 0
	for _, e := range ents {
		n.Facts += int(b.entFacts[e])
		n.NewFacts += int(b.entNew[e])
	}
}

// sharedCore returns the subset of props held by at least two entities
// of the table. It returns props itself (not a copy) when every
// property qualifies, and otherwise builds the subset in *buf.
func (b *Builder) sharedCore(props []fact.Property, buf *[]fact.Property) []fact.Property {
	freq := b.Scratch.propFreq
	shared := 0
	for _, p := range props {
		if freq[p] >= 2 {
			shared++
		}
	}
	if shared == len(props) {
		return props
	}
	core := (*buf)[:0]
	for _, p := range props {
		if freq[p] >= 2 {
			core = append(core, p)
		}
	}
	*buf = core
	return core
}

// isCanonical applies Proposition 12.
func (b *Builder) isCanonical(n *Node) bool {
	if n.Initial {
		return true
	}
	count := 0
	for _, c := range n.Children {
		if c.Canonical {
			count++
			if count >= 2 {
				return true
			}
		}
	}
	return false
}

// remove deletes a non-canonical node, re-linking each of its children to
// each of its parents unless the child is already a descendant of that
// parent through another node (a sibling child whose property set is a
// strict subset of the child's).
func (b *Builder) remove(n *Node) {
	n.removed = true
	for _, p := range n.Parents {
		delChild(p, n)
	}
	for _, c := range n.Children {
		c.Parents = deleteNode(c.Parents, n)
	}
	for _, p := range n.Parents {
		for _, c := range n.Children {
			if p.HasChild(c) || descendantViaOther(p, c) {
				continue
			}
			addChild(p, c)
			c.Parents = append(c.Parents, p)
		}
	}
}

// descendantViaOther reports whether c is a descendant of p through some
// current child x of p: props(p) ⊂ props(x) ⊂ props(c).
func descendantViaOther(p, c *Node) bool {
	for _, x := range p.Children {
		if x != c && len(x.Props) < len(c.Props) && idset.IsSubset(x.Props, c.Props) {
			return true
		}
	}
	return false
}

// score computes Profit, FLB, and SLB for a canonical node.
func (b *Builder) score(n *Node, ws *workerScratch) {
	n.Profit = b.Cost.SliceProfit(n.NewFacts, n.Facts, b.Table.TotalFacts)

	// Collect the lower-bound sets of children with positive bounds,
	// each member once, in first-seen order.
	ws.stamp++
	if ws.stamp == 0 { // wrapped: old marks could alias the new stamp
		clear(ws.seen)
		ws.stamp = 1
	}
	lb := ws.lb[:0]
	add := func(s *Node) {
		if ws.seen[s.set] != ws.stamp {
			ws.seen[s.set] = ws.stamp
			lb = append(lb, s)
		}
	}
	for _, c := range n.Children {
		if c.FLB <= 0 {
			continue
		}
		if c.SLBSelf {
			add(c)
			continue
		}
		for _, s := range c.SLB {
			add(s)
		}
	}
	ws.lb = lb
	fUnion := 0.0
	if len(lb) > 0 {
		fUnion = b.setProfit(lb, ws)
	}

	// S_LB(S) is {S} when the node alone does at least as well as its
	// descendants' bound, else the collected set (when it gains at all).
	n.FLB, n.SLB, n.SLBSelf = 0, nil, false
	switch {
	case n.Profit >= max(fUnion, 0) && n.Profit > 0:
		n.FLB, n.SLBSelf = n.Profit, true
	case fUnion > 0:
		n.FLB, n.SLB = fUnion, slices.Clone(lb)
	}
}

// setProfit computes f over a set of (possibly entity-overlapping) nodes
// of this source. The entity union is accumulated in the worker's two
// ping-pong buffers instead of a per-call map.
func (b *Builder) setProfit(nodes []*Node, ws *workerScratch) float64 {
	if len(nodes) == 1 {
		return nodes[0].Profit
	}
	acc, spare := ws.unionA[:0], ws.unionB[:0]
	for _, n := range nodes {
		spare = idset.AppendUnion(spare[:0], acc, n.Entities.Values())
		acc, spare = spare, acc
	}
	facts, newFacts := 0, 0
	for _, e := range acc {
		facts += int(b.entFacts[e])
		newFacts += int(b.entNew[e])
	}
	ws.unionA, ws.unionB = acc, spare
	return b.Cost.SetProfit(len(nodes), facts, newFacts, []int{b.Table.TotalFacts})
}

// EntityStats exposes the per-entity fact counters for the traversal.
func (b *Builder) EntityStats() (facts, newFacts []int32) { return b.entFacts, b.entNew }

func deleteNode(list []*Node, n *Node) []*Node {
	out := list[:0]
	for _, x := range list {
		if x != n {
			out = append(out, x)
		}
	}
	return out
}

// compareNodes orders a level's nodes by their property sets. All nodes
// of one level have equally many properties, so elementwise comparison
// of the packed uint64 properties reproduces the ordering of the
// big-endian byte keys the levels were once keyed by — node iteration
// order is unchanged and the build stays deterministic.
func compareNodes(a, b *Node) int { return slices.Compare(a.Props, b.Props) }
