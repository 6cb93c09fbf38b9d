package main

import (
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into each layer.
// Spans stay in memory until the run ends; a nil *tracer records
// nothing, so untraced runs pay only a nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []spanRec
}

// spanRec is one finished or open span. root is the index of the span
// that started the request (the span itself for a root), so every span
// of one request shares it.
type spanRec struct {
	name       string
	parent     int
	root       int
	start, end time.Duration
}

// span is a handle on an open span; the zero value (from a nil tracer)
// is inert.
type span struct {
	t *tracer
	i int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]spanRec, 0, 1<<14)}
}

// root opens a span that starts a new request.
func (t *tracer) root(name string) span { return t.open(name, span{}) }

// child opens a span caused by parent.
func (t *tracer) child(name string, parent span) span { return t.open(name, parent) }

func (t *tracer) open(name string, parent span) span {
	if t == nil {
		return span{}
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	i := len(t.spans)
	rec := spanRec{name: name, parent: -1, root: i, start: now, end: -1}
	if parent.t == t {
		rec.parent = parent.i
		rec.root = t.spans[parent.i].root
	}
	t.spans = append(t.spans, rec)
	return span{t: t, i: i}
}

// end closes the span and returns its duration (0 for an inert span).
func (s span) end() time.Duration {
	if s.t == nil {
		return 0
	}
	now := time.Since(s.t.epoch)
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.t.spans[s.i].end = now
	return now - s.t.spans[s.i].start
}

// layerStat summarizes every closed span of one name.
type layerStat struct {
	durations []float64 // ms
	selfMS    float64   // total duration minus the time child spans cover
}

// stats folds the closed spans by name. Self time subtracts the union
// of each span's direct children's intervals, so overlapping children
// are not double-counted.
func (t *tracer) stats() map[string]*layerStat {
	out := make(map[string]*layerStat)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]spanRec)
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		st := out[s.name]
		if st == nil {
			st = &layerStat{}
			out[s.name] = st
		}
		d := s.end - s.start
		st.durations = append(st.durations, ms(d))
		st.selfMS += ms(d - covered(children[i]))
	}
	return out
}

// covered is the length of the union of the spans' intervals; the
// spans arrive in start order because they were appended as opened.
func covered(spans []spanRec) time.Duration {
	var total, curStart, curEnd time.Duration
	open := false
	for _, s := range spans {
		switch {
		case !open:
			curStart, curEnd, open = s.start, s.end, true
		case s.start > curEnd:
			total += curEnd - curStart
			curStart, curEnd = s.start, s.end
		case s.end > curEnd:
			curEnd = s.end
		}
	}
	if open {
		total += curEnd - curStart
	}
	return total
}
