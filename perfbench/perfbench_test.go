package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks
// the output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type resultLine struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) == 0 || len(spec.EndToEnd) == 0 || len(spec.PerLayer) == 0 {
		t.Fatalf("BENCHMARK.json lacks workloads or metrics: %+v", spec)
	}
	return spec
}

// runTiny runs one workload at self-test scale and returns its exit
// code, its output lines and the parsed result line.
func runTiny(t *testing.T, workload string, extra ...string) (int, []string, resultLine) {
	t.Helper()
	args := append([]string{"--workload", workload, "--seed", "3", "--seconds", "0.6", "--tiny", "--data", t.TempDir()}, extra...)
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s %v: last line is not the result object: %v\nstdout:\n%s\nstderr:\n%s", workload, extra, err, stdout.String(), stderr.String())
	}
	return code, lines, res
}

func checkLines(lines []string) (pass, fail int) {
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l, "check ") && strings.Contains(l, " pass "):
			pass++
		case strings.HasPrefix(l, "check ") && strings.Contains(l, " FAIL "):
			fail++
		}
	}
	return pass, fail
}

// TestWorkloads runs every workload of BENCHMARK.json at tiny scale:
// untraced it must pass every check with no failed operation and emit
// every end-to-end metric with its unit; traced it must emit every
// per-layer metric; in break mode every check must fail.
func TestWorkloads(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			code, lines, res := runTiny(t, w.Name, "--trace", "0")
			pass, fail := checkLines(lines)
			if code != 0 || !res.Correct || fail != 0 || pass == 0 {
				t.Fatalf("untraced run: exit %d correct=%v checks pass=%d fail=%d\n%s", code, res.Correct, pass, fail, strings.Join(lines, "\n"))
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("attempted=%d failed=%d, want ≥1 and 0", res.Attempted, res.Failed)
			}
			for _, m := range spec.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Value == nil || got.Unit != m.Unit {
					t.Errorf("end-to-end metric %s (%s) missing or mis-unit: %+v", m.Name, m.Unit, got)
				} else if *got.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, *got.Value)
				}
			}
			if len(res.Metrics) != len(spec.EndToEnd) {
				t.Errorf("untraced run emitted %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(spec.EndToEnd))
			}

			code, lines, res = runTiny(t, w.Name, "--trace", "1")
			if code != 0 || !res.Correct {
				t.Fatalf("traced run: exit %d correct=%v\n%s", code, res.Correct, strings.Join(lines, "\n"))
			}
			for _, m := range spec.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Value == nil || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s (%s) missing or mis-unit: %+v", m.Name, m.Unit, got)
				}
			}
			if len(res.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced run emitted %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(spec.PerLayer))
			}

			code, lines, res = runTiny(t, w.Name, "--trace", "0", "--break")
			pass, fail = checkLines(lines)
			if code == 0 || res.Correct || pass != 0 || fail == 0 {
				t.Fatalf("break mode: exit %d correct=%v checks pass=%d fail=%d, want every check to fail\n%s",
					code, res.Correct, pass, fail, strings.Join(lines, "\n"))
			}
		})
	}
}

func TestTail(t *testing.T) {
	var s samples
	for i := 1; i <= 100; i++ {
		s = append(s, float64(i))
	}
	// 90 has exactly ten samples (91..100) beyond it.
	if v, pct := s.tail(); v != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90", v, pct)
	}
	// With 10000 samples the eleventh-largest is p99.9; the cap holds p99.
	var big samples
	for i := 1; i <= 10000; i++ {
		big = append(big, float64(i))
	}
	if v, pct := big.tail(); v != 9900 || pct != 99 {
		t.Errorf("tail of 1..10000 = %v at p%v, want 9900 at p99", v, pct)
	}
	if v, pct := s[:5].tail(); v != 5 || pct != 100 {
		t.Errorf("tail of 5 samples = %v at p%v, want the maximum", v, pct)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.root("a")
	c1 := tr.child("b", root)
	c1.end()
	c2 := tr.child("b", root)
	c2.end()
	root.end()
	st := tr.stats()
	if len(st["a"].durations) != 1 || len(st["b"].durations) != 2 {
		t.Fatalf("span counts: %+v", st)
	}
	if self := st["a"].selfMS; self < 0 || self > st["a"].durations[0] {
		t.Errorf("self time %v outside [0, %v]", self, st["a"].durations[0])
	}
	var inert *tracer
	if d := inert.root("x").end(); d != 0 {
		t.Errorf("nil tracer span lasted %v", d)
	}
}
