package main

import (
	"math"
	"sort"
	"time"
)

// samples collects one timing per operation, in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/1e6) }

func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// median is the middle value (mean of the two middle values for an even
// count); 0 when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func (s samples) p50() float64 { return median(s) }

// tail returns the highest percentile that still has at least ten
// samples beyond it — the eleventh-largest value — capped at p99 so
// that a faster run, which collects more samples, is not judged at a
// more extreme percentile. It is labeled with the share of samples at
// or below it. With fewer than eleven samples it falls back to the
// maximum (pct 100), which callers report with its count.
func (s samples) tail() (value, pct float64) {
	v := s.sorted()
	n := len(v)
	if n == 0 {
		return 0, 0
	}
	i := min(n-11, int(math.Ceil(0.99*float64(n)))-1)
	if i < 0 {
		i = n - 1
	}
	return v[i], 100 * float64(i+1) / float64(n)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
