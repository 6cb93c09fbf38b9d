// Worker-budget machinery for the parallel lattice build.
//
// Build shards three phases of each level's bottom-up sweep — parent
// generation, entity-set finalization, and profit scoring — across a
// bounded set of workers. Determinism is the contract: every sharded
// phase either computes per-node results that are independent of the
// sharding, or records its operations in worker-private scratch
// (including a private idset.Interner for new parent property sets) and
// replays them through a single-threaded merge in exactly the
// sequential order. The differential suite in parallel_test.go proves
// parallel ≡ sequential node by node on every datagen corpus.
package hierarchy

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Options bounds Build's within-source parallelism. It mirrors
// framework.Options.Workers semantics: 0 means the package default
// (GOMAXPROCS unless overridden via SetDefaultWorkers), 1 forces the
// sequential path, and any value produces bit-identical output.
type Options struct {
	// Workers caps the number of concurrent workers one Build may use.
	Workers int
	// Pool optionally shares a worker-token budget with other concurrent
	// builds. The framework passes its source-level pool here, so
	// source-level and lattice-level parallelism draw on one budget:
	// while many sources are in flight the lattices build sequentially,
	// and when one oversized source remains its lattice fans out over
	// the idle workers. nil means a private budget of Workers.
	Pool *Pool
}

// defaultWorkers overrides the GOMAXPROCS fallback for Options.Workers
// == 0; set by binaries (midas-bench -hier-workers) to pin lattice
// parallelism process-wide. Atomic because builds run concurrently
// under the framework.
var defaultWorkers atomic.Int32

// SetDefaultWorkers sets the process-wide default used when
// Options.Workers is 0. n ≤ 0 restores the GOMAXPROCS default.
func SetDefaultWorkers(n int) { defaultWorkers.Store(int32(n)) }

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	if n := int(defaultWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Pool is a shared worker-token budget. The framework sizes one Pool to
// its Options.Workers; each source shard holds one token while it runs
// (Acquire blocks), and the lattice build inside a shard adds extra
// workers only when spare tokens exist (TryAcquire), so a run never
// exceeds its budget no matter how the two levels of parallelism nest.
type Pool struct {
	tokens chan struct{}
}

// NewPool returns a pool of n tokens (at least one).
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	return &Pool{tokens: make(chan struct{}, n)}
}

// Acquire blocks until a token is available.
func (p *Pool) Acquire() { p.tokens <- struct{}{} }

// TryAcquire takes a token without blocking, reporting success. A nil
// pool is an unbounded budget: TryAcquire always succeeds.
func (p *Pool) TryAcquire() bool {
	if p == nil {
		return true
	}
	select {
	case p.tokens <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a token. No-op on a nil pool.
func (p *Pool) Release() {
	if p == nil {
		return
	}
	<-p.tokens
}

// Per-worker minimum items before a phase shards: below these,
// goroutine and merge bookkeeping outweighs the work, so small sources
// keep the plain sequential path (the output is identical either way).
const (
	genMinChunk      = 96
	finalizeMinChunk = 96
	scoreMinChunk    = 48
)

// workSet is an acquired degree of parallelism for one phase: n
// workers, n−1 of them holding pool tokens until run returns. The
// calling goroutine is always worker 0 (its token, if any, is the one
// its own caller holds), so a build makes progress even when the pool
// is exhausted.
type workSet struct {
	pool *Pool
	n    int
}

// acquireWorkers sizes a phase's worker set: at most Options.Workers,
// at most one worker per minChunk items, and beyond the first worker
// only as many as the shared pool has spare tokens for. The scratch is
// grown to hold every acquired worker's private state.
func (b *Builder) acquireWorkers(items, minChunk int) workSet {
	want := b.Options.workers()
	if cap := items / minChunk; want > cap {
		want = cap
	}
	extra := 0
	for extra < want-1 && b.Options.Pool.TryAcquire() {
		extra++
	}
	b.Scratch.growWorkers(extra + 1)
	return workSet{pool: b.Options.Pool, n: extra + 1}
}

// run executes fn over nodes split into n contiguous chunks, one per
// worker, and returns when all chunks finish. Chunks are contiguous and
// index-ordered so a worker-order replay of per-chunk records
// reproduces the sequential operation order. Must be called exactly
// once per acquireWorkers: it releases the held tokens. fn is a method
// expression, so a one-worker phase runs without allocating a closure.
func (ws workSet) run(b *Builder, nodes []*Node, fn func(b *Builder, w int, chunk []*Node)) {
	if ws.n <= 1 {
		fn(b, 0, nodes)
		return
	}
	var wg sync.WaitGroup
	for w := 1; w < ws.n; w++ {
		lo, hi := chunkBounds(len(nodes), ws.n, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer ws.pool.Release()
			fn(b, w, nodes[lo:hi])
		}()
	}
	lo, hi := chunkBounds(len(nodes), ws.n, 0)
	fn(b, 0, nodes[lo:hi])
	wg.Wait()
}

// chunkBounds splits [0, items) evenly into workers contiguous chunks.
func chunkBounds(items, workers, w int) (lo, hi int) {
	return items * w / workers, items * (w + 1) / workers
}
