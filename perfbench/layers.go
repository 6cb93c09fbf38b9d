package main

import "fmt"

// layerCatalog is every per-layer metric a traced run reports, in
// BENCHMARK.json's order.
var layerCatalog = []struct{ name, unit string }{
	{"serve.facts_overhead_ms", "ms"},
	{"serve.discover_overhead_ms", "ms"},
	{"serve.result_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.shed", "count"},
	{"store.append_ms", "ms"},
	{"store.records_per_fsync", "ratio"},
	{"store.wal_bytes_per_fact", "B"},
	{"store.snapshot_ms", "ms"},
	{"store.snapshots", "count"},
	{"store.recover_ms", "ms"},
	{"store.recover_bytes", "B"},
	{"session.add_facts_ms", "ms"},
	{"session.discover_ms", "ms"},
	{"session.absorb_ms", "ms"},
	{"session.fingerprint_ms", "ms"},
	{"kb.load_ms", "ms"},
	{"framework.run_ms", "ms"},
	{"framework.round_ms.d1", "ms"},
	{"framework.round_ms.d2", "ms"},
	{"framework.round_ms.d3", "ms"},
	{"framework.sources_processed", "count"},
	{"framework.reuse_ratio", "ratio"},
	{"fact.build_ms", "ms"},
	{"hierarchy.build_ms", "ms"},
	{"hierarchy.build_mallocs", "count"},
	{"hierarchy.nodes", "count"},
	{"hierarchy.pruned_ratio", "ratio"},
	{"core.traverse_ms", "ms"},
	{"kb.contains_ns.hit", "ns"},
	{"kb.contains_ns.miss", "ns"},
	{"idset.union_ns", "ns"},
	{"idset.intersect_ns", "ns"},
	{"idset.intern_ns", "ns"},
	{"dict.intern_ns", "ns"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.mallocs_per_op", "count"},
	{"go.gc_cycles", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// fillLayers gives any catalog metric still unmeasured a zero, so each
// traced run reports the full set even when a layer had no calls.
func (o *outcome) fillLayers() {
	for _, c := range layerCatalog {
		if _, ok := o.layer[c.name]; !ok {
			o.setLayer(c.name, c.unit, 0, "n=0, no calls")
		}
	}
}

// spanLayer reports the median duration of the spans named span as
// metric, with the span count as base.
func (o *outcome) spanLayer(stats map[string]*layerStat, span, metric string) {
	st := stats[span]
	if st == nil || len(st.durations) == 0 {
		return
	}
	o.setLayer(metric, "ms", median(st.durations),
		fmt.Sprintf("p50 of %d %s spans, self %.4g ms total", len(st.durations), span, st.selfMS))
}

// storeLayers reports the store's per-layer metrics of a traced serve
// phase: direct append and snapshot spans from the mirrors, group
// commit from the server's counters between c0 and c1, and WAL bytes
// per fact from the mirrors' segment files.
func storeLayers(o *outcome, stats map[string]*layerStat, c0, c1 map[string]int64, walBytes int64, walFacts int) {
	o.spanLayer(stats, "store.append", "store.append_ms")
	o.spanLayer(stats, "store.snapshot", "store.snapshot_ms")
	records, fsyncs := counterDelta(c0, c1, "store/records"), counterDelta(c0, c1, "store/fsyncs")
	o.setLayer("store.records_per_fsync", "ratio", ratio(float64(records), float64(fsyncs)),
		fmt.Sprintf("store/records %d / store/fsyncs %d", records, fsyncs))
	o.setLayer("store.wal_bytes_per_fact", "B", ratio(float64(walBytes), float64(walFacts)),
		fmt.Sprintf("%d WAL bytes / %d facts", walBytes, walFacts))
}
