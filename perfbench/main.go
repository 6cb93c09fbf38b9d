// Command perfbench is the repository's benchmark: three workloads that
// drive MIDAS end to end — batch discovery, a durable curation loop
// over HTTP, and a durable ingest stream — each built from a seed,
// checked for correct output, and measured end to end (untraced) or
// per layer (traced). See README.md in this directory.
//
//	bash perfbench/run.sh --workload batch-slim --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dataDir  string // scratch directory for this run's durable state
	tiny     bool   // self-test scale
	breakIt  bool   // corrupt every checked result: every check must fail
}

// metric is one named number with its unit; base says what it was
// computed from (sample count, percentile, numerator/denominator).
type metric struct {
	Name  string
	Unit  string
	Value float64
	Base  string
}

// check is one output-correctness verdict.
type check struct {
	Name   string
	OK     bool
	Detail string
}

// outcome is what a workload hands back to main.
type outcome struct {
	e2e    []metric // the contract metrics every workload reports
	detail []metric // the workload's own named end-to-end metrics
	layer  map[string]metric
	checks []check
	ops    *opBook
	notes  []string
}

func (o *outcome) addDetail(name, unit string, v float64, base string) {
	o.detail = append(o.detail, metric{name, unit, v, base})
}

func (o *outcome) setLayer(name, unit string, v float64, base string) {
	if o.layer == nil {
		o.layer = make(map[string]metric)
	}
	o.layer[name] = metric{name, unit, v, base}
}

func (o *outcome) addCheck(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

var workloads = map[string]func(cfg config) (*outcome, error){
	"batch-slim":   runBatch,
	"serve-curate": runCurate,
	"serve-ingest": runIngest,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fl.StringVar(&cfg.workload, "workload", "", "batch-slim | serve-curate | serve-ingest")
	fl.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fl.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	fl.IntVar(&traceFlag, "trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from spans")
	data := fl.String("data", ".bench_build", "directory for the run's scratch state")
	fl.BoolVar(&cfg.tiny, "tiny", false, "run at self-test scale")
	fl.BoolVar(&cfg.breakIt, "break", false, "corrupt each checked result; every check must then fail")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fn := workloads[cfg.workload]
	if fn == nil || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %s, --seconds > 0, --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	cfg.trace = traceFlag == 1
	cfg.dataDir = filepath.Join(*data, fmt.Sprintf("run-%d-%d", os.Getpid(), time.Now().UnixNano()))
	if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(cfg.dataDir)

	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%d break=%v tiny=%v\n",
		cfg.workload, cfg.seed, cfg.seconds, traceFlag, cfg.breakIt, cfg.tiny)
	meta, _ := json.Marshal(hostMeta(cfg))
	fmt.Fprintf(stdout, "meta %s\n", meta)

	o, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	if cfg.trace {
		o.fillLayers()
	}
	return report(cfg, o, stdout)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report prints every metric, check and endpoint tally, then the
// result object as the last line. The exit code is 1 when any check
// failed.
func report(cfg config, o *outcome, w io.Writer) int {
	for _, m := range o.e2e {
		fmt.Fprintf(w, "e2e %-28s %14.6g %-6s %s\n", m.Name, m.Value, m.Unit, m.Base)
	}
	for _, m := range o.detail {
		fmt.Fprintf(w, "metric %-25s %14.6g %-6s %s\n", m.Name, m.Value, m.Unit, m.Base)
	}
	layerNames := make([]string, 0, len(o.layer))
	for n := range o.layer {
		layerNames = append(layerNames, n)
	}
	sort.Strings(layerNames)
	for _, n := range layerNames {
		m := o.layer[n]
		fmt.Fprintf(w, "layer %-30s %14.6g %-6s %s\n", m.Name, m.Value, m.Unit, m.Base)
	}
	for _, ep := range o.ops.endpoints() {
		c := o.ops.snapshot()[ep]
		fmt.Fprintf(w, "ops %-24s sent=%d ok=%d failed=%d (429=%d 5xx=%d other=%d transport=%d call=%d)\n",
			ep, c.Sent, c.OK, c.Failed, c.Shed429, c.Server5xx, c.Other, c.Transport, c.CallErr)
	}
	for _, n := range o.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	correct := len(o.checks) > 0
	for _, c := range o.checks {
		verdict := "pass"
		if !c.OK {
			verdict = "FAIL"
			correct = false
		}
		fmt.Fprintf(w, "check %-22s %s %s\n", c.Name, verdict, c.Detail)
	}
	sent, failed := o.ops.totals()
	if sent == 0 {
		correct = false
	}
	metrics := make(map[string]map[string]any)
	emit := func(m metric) {
		metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	if cfg.trace {
		for _, c := range layerCatalog {
			emit(o.layer[c.name])
		}
	} else {
		for _, m := range o.e2e {
			emit(m)
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": sent,
		"failed":    failed,
		"metrics":   metrics,
	})
	fmt.Fprintf(w, "%s\n", line)
	if !correct {
		return 1
	}
	return 0
}

// contractMetrics are the end-to-end metrics every workload reports,
// in BENCHMARK.json's order. Each workload maps its own headline
// operation onto them (README.md lists the mapping).
func contractMetrics(setupS float64, setupN int, op samples, throughput float64, throughputBase string, heapMB float64) []metric {
	tail, pct := op.tail()
	return []metric{
		{"setup_s", "s", setupS, fmt.Sprintf("median of %d set-ups", setupN)},
		{"op_ms_p50", "ms", op.p50(), fmt.Sprintf("n=%d", len(op))},
		{"op_ms_tail", "ms", tail, fmt.Sprintf("p%.1f n=%d", pct, len(op))},
		{"throughput_per_s", "1/s", throughput, throughputBase},
		{"heap_mb", "MB", heapMB, "live heap after GC, program state only"},
	}
}

// latencyDetail adds name_p50 and name_tail for one operation.
func (o *outcome) latencyDetail(name string, s samples) {
	tail, pct := s.tail()
	o.addDetail(name+"_p50", "ms", s.p50(), fmt.Sprintf("n=%d", len(s)))
	o.addDetail(name+"_tail", "ms", tail, fmt.Sprintf("p%.1f n=%d", pct, len(s)))
}

// failedRatioDetail adds ops_failed_ratio over everything sent.
func (o *outcome) failedRatioDetail() {
	sent, failed := o.ops.totals()
	o.addDetail("ops_failed_ratio", "ratio", ratio(float64(failed), float64(sent)), fmt.Sprintf("%d/%d", failed, sent))
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// memCounters snapshots the allocator counters the go.* layer metrics
// difference.
type memCounters struct {
	alloc, mallocs uint64
	gc             uint32
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{m.TotalAlloc, m.Mallocs, m.NumGC}
}

// goLayer sets the go.* metrics from the allocator counters across a
// phase that completed ops operations.
func (o *outcome) goLayer(before, after memCounters, ops int, opName string) {
	n := float64(ops)
	base := fmt.Sprintf("per %s, %d %ss", opName, ops, opName)
	o.setLayer("go.alloc_mb_per_op", "MB", ratio(float64(after.alloc-before.alloc)/(1<<20), n), base)
	o.setLayer("go.mallocs_per_op", "count", ratio(float64(after.mallocs-before.mallocs), n), base)
	o.setLayer("go.gc_cycles", "count", float64(after.gc-before.gc), fmt.Sprintf("over %d %ss", ops, opName))
}

type hostInfo struct {
	Host         string  `json:"host"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	SourceDigest string  `json:"source_digest"`
	Seed         int64   `json:"seed"`
	Workload     string  `json:"workload"`
	Seconds      float64 `json:"seconds"`
	Trace        bool    `json:"trace"`
}

func hostMeta(cfg config) hostInfo {
	host, _ := os.Hostname()
	return hostInfo{
		Host:         host,
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       gitCommit("."),
		SourceDigest: sourceDigest("."),
		Seed:         cfg.seed,
		Workload:     cfg.workload,
		Seconds:      cfg.seconds,
		Trace:        cfg.trace,
	}
}

// gitCommit resolves HEAD from the .git directory without running git;
// "none" outside a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	name := strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(name))); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[1] == name {
				return f[0]
			}
		}
	}
	return "none"
}

// sourceDigest hashes every Go source and go.mod under root (skipping
// dot-directories such as the build directory), identifying the code
// measured even where no commit is available.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
