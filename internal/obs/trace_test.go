package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// decodeTrace parses WriteChromeTrace output through encoding/json,
// proving the export is well-formed Chrome trace-event JSON.
func decodeTrace(t *testing.T, tr *Tracer) []chromeEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		TraceEvents     []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	return doc.TraceEvents
}

func TestTracerSpansAndArgs(t *testing.T) {
	tr := NewTracer()
	ctx, root := tr.StartSpan(context.Background(), "framework/run")
	_, child := StartSpan(ctx, "detect")
	child.Arg("slices", "3").End()
	root.Arg("rounds", "1").End()

	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
	events := decodeTrace(t, tr)
	byName := map[string]chromeEvent{}
	for _, ev := range events {
		if ev.Phase != "X" || ev.Cat != "midas" || ev.PID != 1 {
			t.Errorf("event %+v: want complete midas event on pid 1", ev)
		}
		byName[ev.Name] = ev
	}
	if byName["detect"].Args["slices"] != "3" {
		t.Errorf("detect args = %v", byName["detect"].Args)
	}
	if byName["framework/run"].Args["rounds"] != "1" {
		t.Errorf("run args = %v", byName["framework/run"].Args)
	}
	// The child nests inside the parent, so they share a display lane.
	if byName["detect"].TID != byName["framework/run"].TID {
		t.Errorf("child lane %d != parent lane %d, nested spans should share",
			byName["detect"].TID, byName["framework/run"].TID)
	}
}

func TestTracerConcurrentChildrenSpreadLanes(t *testing.T) {
	tr := NewTracer()
	ctx, root := tr.StartSpan(context.Background(), "round")
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, s := StartSpan(ctx, "worker")
			time.Sleep(5 * time.Millisecond) // force overlap
			s.End()
		}()
	}
	close(start)
	wg.Wait()
	root.End()

	events := decodeTrace(t, tr)
	if len(events) != 5 {
		t.Fatalf("events = %d, want 5", len(events))
	}
	// Overlapping siblings must not share a lane with each other, and a
	// lane holding a worker may hold the root only by containment.
	lanes := map[int][]chromeEvent{}
	for _, ev := range events {
		for _, prev := range lanes[ev.TID] {
			disjoint := ev.TS >= prev.TS+prev.Dur || prev.TS >= ev.TS+ev.Dur
			contains := (prev.TS <= ev.TS && ev.TS+ev.Dur <= prev.TS+prev.Dur) ||
				(ev.TS <= prev.TS && prev.TS+prev.Dur <= ev.TS+ev.Dur)
			if !disjoint && !contains {
				t.Errorf("lane %d holds partially-overlapping spans %q and %q", ev.TID, prev.Name, ev.Name)
			}
		}
		lanes[ev.TID] = append(lanes[ev.TID], ev)
	}
}

func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, s := tr.StartSpan(context.Background(), "x")
	s.Arg("k", "v").End()
	if s != nil {
		t.Error("nil tracer should return nil span")
	}
	if got := SpanFromContext(ctx); got != nil {
		t.Errorf("nil span should not enter the context, got %v", got)
	}
	// Package-level StartSpan without a span in ctx is a no-op.
	_, s2 := StartSpan(context.Background(), "y")
	s2.End()
	if tr.Len() != 0 {
		t.Errorf("nil tracer Len = %d", tr.Len())
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("traceEvents")) {
		t.Errorf("nil tracer should still write an empty trace document, got %s", buf.String())
	}
}

func TestTracerOrDefault(t *testing.T) {
	prev := DefaultTracer()
	defer SetDefaultTracer(prev)

	SetDefaultTracer(nil)
	var nilT *Tracer
	if nilT.OrDefault() != nil {
		t.Error("OrDefault with no default should stay nil")
	}
	d := NewTracer()
	SetDefaultTracer(d)
	if nilT.OrDefault() != d {
		t.Error("OrDefault should fall back to the default tracer")
	}
	if d.OrDefault() != d {
		t.Error("OrDefault on a non-nil tracer should return itself")
	}
}

func TestTracerWriteFile(t *testing.T) {
	tr := NewTracer()
	_, s := tr.StartSpan(context.Background(), "phase")
	s.End()
	path := t.TempDir() + "/trace.json"
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty trace output")
	}
}

// TestRootSampling: with SetRootSampling(n), only every nth root span
// is recorded, and the children of a sampled-out root are dropped with
// it (the context carries no span, so they never start).
func TestRootSampling(t *testing.T) {
	tr := NewTracer()
	tr.SetRootSampling(3)
	for i := 0; i < 9; i++ {
		ctx, root := tr.StartSpan(context.Background(), "root")
		_, child := StartSpan(ctx, "child")
		child.End()
		root.End()
	}
	// 3 sampled roots, each with its child.
	if tr.Len() != 6 {
		t.Fatalf("Len = %d, want 6 (3 roots + 3 children)", tr.Len())
	}
	// n <= 1 keeps everything; nil tracer is a no-op.
	tr2 := NewTracer()
	tr2.SetRootSampling(1)
	for i := 0; i < 4; i++ {
		_, s := tr2.StartSpan(context.Background(), "root")
		s.End()
	}
	if tr2.Len() != 4 {
		t.Fatalf("Len = %d, want 4 with sampling 1", tr2.Len())
	}
	var nilTr *Tracer
	nilTr.SetRootSampling(5)
}

// TestStartSpanOrRoot: child of the ctx span when one exists, root on
// the default tracer otherwise.
func TestStartSpanOrRoot(t *testing.T) {
	old := DefaultTracer()
	defer SetDefaultTracer(old)

	tr := NewTracer()
	SetDefaultTracer(tr)
	_, s := StartSpanOrRoot(context.Background(), "load")
	s.End()
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1 root span on the default tracer", tr.Len())
	}

	ctxTr := NewTracer()
	ctx, root := ctxTr.StartSpan(context.Background(), "parent")
	_, child := StartSpanOrRoot(ctx, "load")
	child.End()
	root.End()
	if ctxTr.Len() != 2 {
		t.Fatalf("Len = %d, want 2 on the ctx tracer", ctxTr.Len())
	}
	if tr.Len() != 1 {
		t.Fatalf("default tracer Len = %d, want 1 (untouched by child path)", tr.Len())
	}
}

// TestTraceIDs: every descendant of one root shares the root's ID as
// its trace ID, and separate roots get separate traces.
func TestTraceIDs(t *testing.T) {
	tr := NewTracer()
	ctx, root := tr.StartSpan(context.Background(), "request")
	cctx, child := tr.StartSpan(ctx, "framework/run")
	_, grand := tr.StartSpan(cctx, "detect")
	if root.TraceID() != root.ID() {
		t.Errorf("root trace = %d, want its own id %d", root.TraceID(), root.ID())
	}
	if child.TraceID() != root.ID() || grand.TraceID() != root.ID() {
		t.Errorf("descendants trace = %d/%d, want %d", child.TraceID(), grand.TraceID(), root.ID())
	}
	_, other := tr.StartSpan(context.Background(), "request")
	if other.TraceID() == root.TraceID() {
		t.Error("independent roots share a trace ID")
	}
	var nilSpan *Span
	if nilSpan.ID() != 0 || nilSpan.TraceID() != 0 {
		t.Error("nil span should have zero IDs")
	}
}

func TestTakeTrace(t *testing.T) {
	tr := NewTracer()
	ctx, root := tr.StartSpan(context.Background(), "request")
	_, child := tr.StartSpan(ctx, "framework/run")
	child.Arg("depth", "02").End()
	root.End()
	_, bystander := tr.StartSpan(context.Background(), "other")
	bystander.End()

	recs := tr.TakeTrace(root.TraceID())
	if len(recs) != 2 {
		t.Fatalf("TakeTrace returned %d spans, want 2", len(recs))
	}
	// Completion order: child ended first.
	if recs[0].Name != "framework/run" || recs[0].Parent != root.ID() || recs[0].Args["depth"] != "02" {
		t.Errorf("recs[0] = %+v", recs[0])
	}
	if recs[1].Name != "request" || recs[1].Parent != 0 || recs[1].Trace != root.ID() {
		t.Errorf("recs[1] = %+v", recs[1])
	}
	// Taken spans are removed; the bystander trace remains.
	if tr.Len() != 1 {
		t.Errorf("Len after take = %d, want 1", tr.Len())
	}
	if again := tr.TakeTrace(root.TraceID()); again != nil {
		t.Errorf("second take returned %d spans, want nil", len(again))
	}
	if tr.TakeTrace(0) != nil {
		t.Error("TakeTrace(0) should return nil")
	}
	var nilTr *Tracer
	if nilTr.TakeTrace(1) != nil {
		t.Error("nil tracer TakeTrace should return nil")
	}
}

// TestSpanRetention: with a cap set, the oldest completed spans age out.
func TestSpanRetention(t *testing.T) {
	tr := NewTracer()
	tr.SetRetention(3)
	for i := 0; i < 10; i++ {
		_, s := tr.StartSpan(context.Background(), "request")
		s.End()
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want retention cap 3", tr.Len())
	}
	// The survivors are the newest spans (highest IDs).
	evs := decodeTrace(t, tr)
	if len(evs) != 3 {
		t.Fatalf("export has %d events, want 3", len(evs))
	}
	var nilTr *Tracer
	nilTr.SetRetention(5) // no-op
}

// spanModel restates the retention policy naively: traces queue by
// their first completed span, and eviction drains the oldest trace
// front to back.
type spanModel struct {
	retain int
	order  []int64
	spans  map[int64][]string // trace → span names in completion order
}

func (m *spanModel) len() int {
	n := 0
	for _, names := range m.spans {
		n += len(names)
	}
	return n
}

func (m *spanModel) end(trace int64, name string) {
	if _, ok := m.spans[trace]; !ok {
		m.order = append(m.order, trace)
	}
	m.spans[trace] = append(m.spans[trace], name)
	for m.retain > 0 && m.len() > m.retain {
		oldest := m.order[0]
		m.spans[oldest] = m.spans[oldest][1:]
		if len(m.spans[oldest]) == 0 {
			delete(m.spans, oldest)
			m.order = m.order[1:]
		}
	}
}

func (m *spanModel) take(trace int64) []string {
	names := m.spans[trace]
	delete(m.spans, trace)
	for i, id := range m.order {
		if id == trace {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	return names
}

// TestSpanStoreMatchesModel drives random interleavings of span ends
// (including late spans of taken and evicted traces), takes, and
// exports, and checks the tracer against spanModel after every step:
// Len exact, takes returning the surviving suffix in completion order,
// every retained span exported exactly once, and the trace queue
// bounded by its live buckets.
func TestSpanStoreMatchesModel(t *testing.T) {
	for _, retain := range []int{0, 1, 7, 64} {
		t.Run(fmt.Sprintf("retain=%d", retain), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(retain) + 1))
			tr := NewTracer()
			tr.SetRetention(retain)
			m := &spanModel{retain: retain, spans: map[int64][]string{}}
			var roots []context.Context // one per trace ever started
			var open []*Span
			seq := 0
			for step := 0; step < 3000; step++ {
				switch op := rng.Intn(20); {
				case op < 3 || len(roots) == 0:
					ctx, s := tr.StartSpan(context.Background(), fmt.Sprint("s", seq))
					seq++
					roots = append(roots, ctx)
					open = append(open, s)
				case op < 8:
					// Any trace, including taken and evicted ones: their
					// children complete late.
					_, s := tr.StartSpan(roots[rng.Intn(len(roots))], fmt.Sprint("s", seq))
					seq++
					open = append(open, s)
				case op < 16 && len(open) > 0:
					i := rng.Intn(len(open))
					s := open[i]
					open[i] = open[len(open)-1]
					open = open[:len(open)-1]
					s.End()
					m.end(s.TraceID(), s.name)
				case op < 19:
					trace := SpanFromContext(roots[rng.Intn(len(roots))]).TraceID()
					want := m.take(trace)
					var got []string
					for _, r := range tr.TakeTrace(trace) {
						if r.Trace != trace {
							t.Fatalf("step %d: take(%d) returned span of trace %d", step, trace, r.Trace)
						}
						got = append(got, r.Name)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("step %d: take(%d) = %v, want %v", step, trace, got, want)
					}
				default:
					var want []string
					for _, names := range m.spans {
						want = append(want, names...)
					}
					var got []string
					for _, ev := range decodeTrace(t, tr) {
						got = append(got, ev.Name)
					}
					slices.Sort(want)
					slices.Sort(got)
					if !slices.Equal(got, want) {
						t.Fatalf("step %d: export = %v, want %v", step, got, want)
					}
				}
				if got, want := tr.Len(), m.len(); got != want {
					t.Fatalf("step %d: Len = %d, want %d", step, got, want)
				}
				if len(tr.order) > 2*len(tr.traces)+65 {
					t.Fatalf("step %d: trace queue holds %d entries for %d live traces", step, len(tr.order), len(tr.traces))
				}
			}
		})
	}
}

// TestTraceQueueCompacts: a tracer whose every trace is taken before
// retention ever evicts (the serving path's job traces) keeps its trace
// queue bounded instead of accumulating one stale entry per take.
func TestTraceQueueCompacts(t *testing.T) {
	tr := NewTracer()
	_, keep := tr.StartSpan(context.Background(), "untaken")
	keep.End()
	for i := 0; i < 1000; i++ {
		_, s := tr.StartSpan(context.Background(), "job")
		s.End()
		if len(tr.TakeTrace(s.TraceID())) != 1 {
			t.Fatalf("take %d lost its span", i)
		}
		if len(tr.order) > 66 {
			t.Fatalf("after %d takes the trace queue holds %d entries for %d live traces", i+1, len(tr.order), len(tr.traces))
		}
	}
	if tr.Len() != 1 || len(decodeTrace(t, tr)) != 1 {
		t.Errorf("Len = %d, want only the untaken span", tr.Len())
	}
}

// TestPartiallyEvictedTrace: retention evicts from the front of the
// oldest trace, so a take returns that trace's surviving suffix in
// completion order.
func TestPartiallyEvictedTrace(t *testing.T) {
	tr := NewTracer()
	tr.SetRetention(4)
	endTrace := func(names ...string) int64 {
		ctx, root := tr.StartSpan(context.Background(), "root")
		for _, name := range names {
			_, s := tr.StartSpan(ctx, name)
			s.End()
		}
		return root.TraceID()
	}
	a := endTrace("a1", "a2", "a3")
	b := endTrace("b1", "b2", "b3")
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	var names []string
	for _, r := range tr.TakeTrace(a) {
		names = append(names, r.Name)
	}
	if !slices.Equal(names, []string{"a3"}) {
		t.Errorf("take(a) = %v, want the surviving suffix [a3]", names)
	}
	if got := len(tr.TakeTrace(b)); got != 3 || tr.Len() != 0 {
		t.Errorf("take(b) = %d spans, Len after = %d; want 3 and 0", got, tr.Len())
	}
}

// TestLateSpansExportedOnce: a span ending after its trace was taken or
// evicted is retained and exported exactly once.
func TestLateSpansExportedOnce(t *testing.T) {
	tr := NewTracer()
	tr.SetRetention(2)
	actx, aroot := tr.StartSpan(context.Background(), "a-root")
	_, lateTaken := tr.StartSpan(actx, "a-late-after-take")
	_, lateEvicted := tr.StartSpan(actx, "a-late-after-evict")
	aroot.End()
	if got := len(tr.TakeTrace(aroot.TraceID())); got != 1 {
		t.Fatalf("take = %d spans, want 1", got)
	}
	lateTaken.End()
	// Two spans of a newer trace evict the late span: trace a is gone.
	bctx, broot := tr.StartSpan(context.Background(), "b-root")
	_, b1 := tr.StartSpan(bctx, "b1")
	b1.End()
	broot.End()
	lateEvicted.End()

	counts := map[string]int{}
	for _, ev := range decodeTrace(t, tr) {
		counts[ev.Name]++
	}
	want := map[string]int{"b-root": 1, "a-late-after-evict": 1}
	if !maps.Equal(counts, want) || tr.Len() != 2 {
		t.Errorf("export = %v with Len %d, want %v", counts, tr.Len(), want)
	}
	recs := tr.TakeTrace(aroot.TraceID())
	if len(recs) != 1 || recs[0].Name != "a-late-after-evict" {
		t.Errorf("second take of a = %+v, want only the late span", recs)
	}
}

// TestSpanStoreConcurrent races span ends against takes and exports
// under a small retention; run it with -race -count=10.
func TestSpanStoreConcurrent(t *testing.T) {
	tr := NewTracer()
	tr.SetRetention(256)
	const writers, traces, spansPerTrace = 4, 200, 8
	ids := make(chan int64, writers*traces)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < traces; i++ {
				ctx, root := tr.StartSpan(context.Background(), "root")
				for k := 0; k < spansPerTrace; k++ {
					_, s := tr.StartSpan(ctx, "child")
					s.End()
				}
				root.End()
				ids <- root.TraceID()
			}
		}()
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		for id := range ids {
			for _, r := range tr.TakeTrace(id) {
				if r.Trace != id {
					t.Errorf("take(%d) returned span of trace %d", id, r.Trace)
				}
			}
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := tr.WriteChromeTrace(io.Discard); err != nil {
				t.Error(err)
			}
			if n := tr.Len(); n < 0 || n > 256 {
				t.Errorf("Len = %d outside [0, 256]", n)
			}
		}
	}()
	wg.Wait()
	close(ids)
	close(stop)
	readers.Wait()
	if tr.Len() != 0 {
		t.Errorf("Len = %d after every trace was taken, want 0", tr.Len())
	}
	if n := len(decodeTrace(t, tr)); n != 0 {
		t.Errorf("export holds %d spans after every trace was taken", n)
	}
}

// BenchmarkSpanEnd measures one span end at full retention, in traces
// of 16 spans. ns/op should not depend on the retention size.
func BenchmarkSpanEnd(b *testing.B) {
	for _, retain := range []int{1 << 10, 1 << 17} {
		b.Run(fmt.Sprintf("retain=%d", retain), func(b *testing.B) {
			tr := NewTracer()
			tr.SetRetention(retain)
			ctx, root := tr.StartSpan(context.Background(), "root")
			end := func(i int) {
				if i%16 == 15 {
					root.End()
					ctx, root = tr.StartSpan(context.Background(), "root")
					return
				}
				_, s := tr.StartSpan(ctx, "child")
				s.End()
			}
			for i := 0; i < retain; i++ {
				end(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				end(i)
			}
		})
	}
}
