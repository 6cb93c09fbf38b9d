package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer collects spans — named, timed, parented intervals — from a
// pipeline run and exports them as Chrome trace-event JSON, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Like the rest of this package it is dependency-free, goroutine-safe,
// and nil-tolerant: a nil *Tracer records nothing and costs nothing, so
// instrumented code starts spans unconditionally. Spans propagate
// through context (ContextWithSpan / StartSpan), which is how the
// framework's worker goroutines parent their per-source spans to the
// round that dispatched them.
type Tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	// sampleN keeps 1 of every sampleN root spans (≤1 keeps all);
	// rootSeen counts root-span starts for the modulus.
	sampleN  atomic.Int64
	rootSeen atomic.Int64
	// retain bounds the retained span count; ≤0 keeps everything
	// (batch runs that export one trace at exit). Long-lived servers set
	// it so untaken traces age out instead of growing without bound.
	retain atomic.Int64

	// Completed spans are bucketed by trace, so TakeTrace touches only
	// its own trace and End never moves other spans. order queues the
	// buckets by first completed span — eviction drains the oldest
	// bucket front to back. A bucket taken by TakeTrace leaves a stale
	// entry in order (skipped by an identity check against traces and
	// compacted away once stale entries outnumber live ones); late spans
	// of a taken or evicted trace open a fresh bucket with its own entry,
	// so no bucket is ever queued twice.
	mu     sync.Mutex
	traces map[int64]*traceBucket
	order  []*traceBucket
	stale  int // entries in order whose bucket is no longer in traces
	n      int // completed spans retained, over all buckets
}

// traceBucket holds one trace's retained spans in completion order.
type traceBucket struct {
	trace  int64
	events []spanEvent
}

// spanEvent is one completed span. Times are offsets from the tracer's
// epoch, so exports are stable regardless of wall-clock adjustments
// mid-run.
type spanEvent struct {
	id     int64
	parent int64 // 0 = root
	trace  int64 // id of the root span of this span's tree
	name   string
	start  time.Duration
	dur    time.Duration
	args   map[string]string
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), traces: make(map[int64]*traceBucket)}
}

// defaultTracer is the process-wide tracer, nil (disabled) unless a
// binary enables it for a -trace run.
var defaultTracer atomic.Pointer[Tracer]

// DefaultTracer returns the process-wide tracer, or nil when tracing is
// disabled (the default). Instrumented packages fall back to it the way
// they fall back to the Default registry.
func DefaultTracer() *Tracer { return defaultTracer.Load() }

// SetDefaultTracer installs t as the process-wide tracer (nil disables).
func SetDefaultTracer(t *Tracer) { defaultTracer.Store(t) }

// OrDefault returns t, or the process-wide default tracer when t is nil
// (which may itself be nil, i.e. tracing disabled).
func (t *Tracer) OrDefault() *Tracer {
	if t == nil {
		return DefaultTracer()
	}
	return t
}

// Span is one in-flight interval. A Span is owned by the goroutine that
// started it: Arg and End are not for concurrent use on the same span,
// but any number of goroutines may start child spans concurrently.
type Span struct {
	t      *Tracer
	id     int64
	parent int64
	trace  int64
	name   string
	start  time.Duration
	args   map[string]string
}

// ID returns the span's identifier, unique within its tracer (0 on a
// nil span).
func (s *Span) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

// TraceID identifies the span tree: every descendant of one root span
// shares the root's ID here (0 on a nil span). The serving path logs it
// on every line and keys TakeTrace with it.
func (s *Span) TraceID() int64 {
	if s == nil {
		return 0
	}
	return s.trace
}

type spanKey struct{}

// ContextWithSpan returns a context carrying s as the current span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the current span, or nil if none.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// FormatTraceID renders a trace (or span) ID exactly as log records
// carry it — fixed-width hex, grep-friendly — so API responses and log
// lines cross-reference verbatim.
func FormatTraceID(id int64) string { return fmt.Sprintf("%08x", uint64(id)) }

// StartSpan starts a span on t, parented to the current span of ctx (a
// root span when ctx has none), and returns the derived context carrying
// the new span. On a nil tracer it returns ctx unchanged and a nil span
// whose methods no-op.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	var parent, trace int64
	if p := SpanFromContext(ctx); p != nil && p.t == t {
		parent, trace = p.id, p.trace
	}
	if parent == 0 {
		if n := t.sampleN.Load(); n > 1 && (t.rootSeen.Add(1)-1)%n != 0 {
			// Sampled out: no span enters the context, so the root's
			// would-be children (which parent through ctx) are dropped
			// with it and the trace stays internally consistent.
			return ctx, nil
		}
	}
	s := &Span{
		t:      t,
		id:     t.nextID.Add(1),
		parent: parent,
		trace:  trace,
		name:   name,
		start:  time.Since(t.epoch),
	}
	if s.trace == 0 {
		s.trace = s.id
	}
	return ContextWithSpan(ctx, s), s
}

// StartSpan starts a child of the current span of ctx, on that span's
// tracer. Without a span in ctx it is a no-op — this is what lets
// instrumented packages trace unconditionally while tracing stays free
// when no binary enabled it.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	p := SpanFromContext(ctx)
	if p == nil {
		return ctx, nil
	}
	return p.t.StartSpan(ctx, name)
}

// StartSpanOrRoot starts a child of the current span of ctx, or — when
// ctx carries none — a root span on the default tracer. Bulk operations
// outside the pipeline (KB loads, evaluation scoring) use it so a
// -trace run records them whether or not a pipeline span is active; it
// stays free when tracing is disabled.
func StartSpanOrRoot(ctx context.Context, name string) (context.Context, *Span) {
	if p := SpanFromContext(ctx); p != nil {
		return p.t.StartSpan(ctx, name)
	}
	return DefaultTracer().StartSpan(ctx, name)
}

// SetRootSampling keeps 1 of every n root spans (and, transitively,
// only their descendants), bounding trace size on long runs such as
// `midas-bench -exp all`; n ≤ 1 keeps every span. Safe to call
// concurrently with tracing.
func (t *Tracer) SetRootSampling(n int) {
	if t == nil {
		return
	}
	t.sampleN.Store(int64(n))
}

// Arg attaches a key/value annotation, shown in the Perfetto span
// details pane. Returns s for chaining; no-op on a nil span.
func (s *Span) Arg(key, value string) *Span {
	if s == nil {
		return nil
	}
	if s.args == nil {
		s.args = make(map[string]string, 4)
	}
	s.args[key] = value
	return s
}

// End completes the span and records it on the tracer. No-op on a nil
// span; calling End twice records the span twice (don't).
func (s *Span) End() {
	if s == nil {
		return
	}
	ev := spanEvent{
		id:     s.id,
		parent: s.parent,
		trace:  s.trace,
		name:   s.name,
		start:  s.start,
		dur:    time.Since(s.t.epoch) - s.start,
		args:   s.args,
	}
	s.t.record(ev)
}

// record files a completed span under its trace and, past the
// retention cap, evicts from the oldest trace — amortized O(1).
func (t *Tracer) record(ev spanEvent) {
	max := int(t.retain.Load())
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.traces[ev.trace]
	if b == nil {
		b = &traceBucket{trace: ev.trace}
		t.traces[ev.trace] = b
		t.order = append(t.order, b)
	}
	b.events = append(b.events, ev)
	t.n++
	for max > 0 && t.n > max {
		t.evictOldest()
	}
}

// evictOldest drops the first span of the oldest retained trace; its
// trace becomes partial, which profile consumers tolerate. Callers hold
// t.mu and guarantee t.n > 0.
func (t *Tracer) evictOldest() {
	for {
		b := t.order[0]
		if t.traces[b.trace] != b {
			t.popOrder()
			t.stale--
			continue
		}
		b.events[0] = spanEvent{}
		b.events = b.events[1:]
		t.n--
		if len(b.events) == 0 {
			delete(t.traces, b.trace)
			t.popOrder()
		}
		return
	}
}

func (t *Tracer) popOrder() {
	t.order[0] = nil
	t.order = t.order[1:]
}

// SetRetention bounds the number of completed spans the tracer retains;
// once exceeded, spans are discarded from the trace whose first span
// completed earliest, in completion order, so the newest spans survive
// and Len never exceeds n. Long-lived servers (which trace every
// request but only fold discovery traces into profiles) set it so
// abandoned traces age out. n ≤ 0 retains everything — the batch
// default, where the whole trace is exported at exit. Safe to call
// concurrently with tracing.
func (t *Tracer) SetRetention(n int) {
	if t == nil {
		return
	}
	t.retain.Store(int64(n))
}

// SpanRecord is one completed span as handed to trace consumers:
// identifiers, interval (offsets from the tracer's epoch), and
// annotations.
type SpanRecord struct {
	ID       int64
	Parent   int64 // 0 = root
	Trace    int64
	Name     string
	Start    time.Duration
	Duration time.Duration
	Args     map[string]string
}

// TakeTrace removes and returns every completed span of the given trace
// (the ID shared by a root span and all its descendants), in completion
// order. Taking a trace is how the serving path folds a finished job's
// spans into its profile while keeping the tracer's memory bounded:
// once taken, the spans no longer appear in Chrome-trace exports. An
// unknown or already-taken trace returns nil. Spans still in flight are
// not included — callers take a trace only after its root has ended; a
// span that ends after the take is retained like any other, and a later
// take returns it. Costs O(spans in the trace).
func (t *Tracer) TakeTrace(traceID int64) []SpanRecord {
	if t == nil || traceID == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.traces[traceID]
	if b == nil {
		return nil
	}
	delete(t.traces, traceID)
	t.n -= len(b.events)
	// b's entry in order is now stale. Compacting once stale entries
	// outnumber live ones keeps order within twice the live buckets at
	// amortized O(1) per take.
	if t.stale++; t.stale > len(t.traces)+64 {
		live := make([]*traceBucket, 0, 2*len(t.traces))
		for _, ob := range t.order {
			if t.traces[ob.trace] == ob {
				live = append(live, ob)
			}
		}
		t.order, t.stale = live, 0
	}
	out := make([]SpanRecord, len(b.events))
	for i, ev := range b.events {
		out[i] = SpanRecord{
			ID: ev.id, Parent: ev.parent, Trace: ev.trace, Name: ev.name,
			Start: ev.start, Duration: ev.dur, Args: ev.args,
		}
	}
	// The stale entry must not pin the taken spans until compaction.
	b.events = nil
	return out
}

// Len returns the number of completed spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// chromeEvent is one trace event in the Chrome trace-event format
// ("X" = complete event with duration; timestamps in microseconds).
type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat"`
	Phase string            `json:"ph"`
	TS    float64           `json:"ts"`
	Dur   float64           `json:"dur"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Args  map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace writes every completed span as Chrome trace-event
// JSON ({"traceEvents": [...]}). Spans are laid out onto display lanes
// (trace "threads") so that two spans share a lane only when their
// intervals nest or are disjoint — Perfetto renders containment as
// nesting, so parent/child spans stack while concurrent workers spread
// across lanes. No-op (empty trace) on a nil tracer.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	var events []spanEvent
	if t != nil {
		t.mu.Lock()
		events = make([]spanEvent, 0, t.n)
		for _, b := range t.order {
			if t.traces[b.trace] == b {
				events = append(events, b.events...)
			}
		}
		t.mu.Unlock()
	}

	// Deterministic layout order: by start time, longer spans first on
	// ties so parents are placed before the children they contain.
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].start != events[j].start {
			return events[i].start < events[j].start
		}
		if events[i].dur != events[j].dur {
			return events[i].dur > events[j].dur
		}
		return events[i].id < events[j].id
	})

	laneOf := make(map[int64]int, len(events))
	type interval struct{ start, end time.Duration }
	var lanes [][]interval
	fits := func(lane []interval, start, end time.Duration) bool {
		for _, iv := range lane {
			disjoint := end <= iv.start || iv.end <= start
			contains := (iv.start <= start && end <= iv.end) || (start <= iv.start && iv.end <= end)
			if !disjoint && !contains {
				return false
			}
		}
		return true
	}
	out := make([]chromeEvent, 0, len(events))
	for _, ev := range events {
		start, end := ev.start, ev.start+ev.dur
		lane := -1
		// Prefer the parent's lane (nests under it), then any lane the
		// span fits, then a fresh lane.
		if pl, ok := laneOf[ev.parent]; ok && fits(lanes[pl], start, end) {
			lane = pl
		} else {
			for i := range lanes {
				if fits(lanes[i], start, end) {
					lane = i
					break
				}
			}
		}
		if lane < 0 {
			lanes = append(lanes, nil)
			lane = len(lanes) - 1
		}
		lanes[lane] = append(lanes[lane], interval{start, end})
		laneOf[ev.id] = lane
		out = append(out, chromeEvent{
			Name:  ev.name,
			Cat:   "midas",
			Phase: "X",
			TS:    float64(ev.start.Microseconds()),
			Dur:   float64(ev.dur) / float64(time.Microsecond),
			PID:   1,
			TID:   lane + 1,
			Args:  ev.args,
		})
	}

	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
	for i, ev := range out {
		if i > 0 {
			fmt.Fprint(bw, ",\n")
		}
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		bw.Write(b)
	}
	fmt.Fprint(bw, "]}\n")
	return bw.Flush()
}

// WriteFile writes the Chrome trace to path, creating or truncating it.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = t.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
