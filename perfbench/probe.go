package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"midas/internal/datagen"
)

// probeServing measures the serving-path layers a workload does not
// call, so every traced run reports every layer. It drives one durable
// session one call at a time on batch-slim's inputs for the seed — KB
// load, the facts in 200-fact batches, a cold discover, its result, an
// absorb, two repeat discovers (the second a cache hit), a snapshot,
// then Store.Kill and recovery — with a mirror making the library and
// store calls each request wraps. Metrics the workload already set are
// kept; the probe's carry the base prefix "probe:".
func probeServing(o *outcome, w *datagen.World, dir string) error {
	facts, kbTSV := worldFacts(w), worldKBTSV(w)
	tr := newTracer()
	p := &outcome{ops: o.ops}
	srvDir, mirrorDir := filepath.Join(dir, "probe"), filepath.Join(dir, "probe-mirror")
	defer os.RemoveAll(srvDir)
	defer os.RemoveAll(mirrorDir)

	c0 := counters()
	env, _, _, err := startServer(srvDir, nil)
	if err != nil {
		return err
	}
	c := newClient(env.base, o.ops)
	defer c.close()
	mst, err := mirrorStore(mirrorDir)
	if err != nil {
		env.kill()
		return err
	}
	defer mst.Close()
	fail := func(err error) error {
		env.kill()
		return fmt.Errorf("probe: %w", err)
	}
	const name = "probe"
	if err := c.createSession(name); err != nil {
		return fail(err)
	}
	if _, err := c.loadKB(name, kbTSV); err != nil {
		return fail(err)
	}
	sess, err := replaySession(kbTSV, nil, tr)
	if err != nil {
		return fail(err)
	}
	m, err := newMirror(mst, mirrorDir, name, sess)
	if err != nil {
		return fail(err)
	}

	var post, direct samples
	for i := 0; i < len(facts); i += ingestBatch {
		batch := facts[i:min(i+ingestBatch, len(facts))]
		d, err := c.postFacts(name, factsTSV(batch))
		if err != nil {
			return fail(err)
		}
		post.add(d)
		dd, err := m.addFacts(batch, span{}, tr)
		if err != nil {
			return fail(err)
		}
		direct.add(dd)
	}

	j, served, err := c.discover(name)
	if err != nil {
		return fail(err)
	}
	start := time.Now()
	if _, err := m.discover(span{}, tr); err != nil {
		return fail(err)
	}
	mirrored := time.Since(start)
	res, resultD, err := c.result(j.Job)
	if err != nil {
		return fail(err)
	}
	if len(res.Slices) > 0 {
		if _, err := c.absorb(name, j.Job, 0); err != nil {
			return fail(err)
		}
		m.absorb(res.Slices[0], span{}, tr)
	}
	for k := 0; k < 2; k++ {
		if _, _, err := c.discover(name); err != nil {
			return fail(err)
		}
	}
	if err := m.snapshot(span{}, tr); err != nil {
		return fail(err)
	}
	c1 := counters()
	c.close()
	env.kill()
	recBytes := dirBytes(srvDir, nil)
	env2, _, _, err := startServer(srvDir, tr)
	if err != nil {
		return fmt.Errorf("probe recovery: %w", err)
	}
	env2.close()

	stats := tr.stats()
	wal, walFacts := m.walPerFact()
	p.setLayer("serve.facts_overhead_ms", "ms", post.p50()-direct.p50(),
		fmt.Sprintf("POST facts p50 %.4g ms (n=%d) minus AppendFacts+AddFacts p50 %.4g ms", post.p50(), len(post), direct.p50()))
	p.setLayer("serve.discover_overhead_ms", "ms", ms(served-mirrored),
		fmt.Sprintf("one cold sync discover %.4g ms minus Fingerprint+DiscoverContext %.4g ms", ms(served), ms(mirrored)))
	p.setLayer("serve.result_ms", "ms", ms(resultD), "one GET result")
	hit, miss := counterDelta(c0, c1, "serve/cache/hit"), counterDelta(c0, c1, "serve/cache/miss")
	p.setLayer("serve.cache_hit_ratio", "ratio", ratio(float64(hit), float64(hit+miss)), fmt.Sprintf("serve/cache/hit %d / %d discovers", hit, hit+miss))
	p.setLayer("serve.shed", "count", float64(counterDelta(c0, c1, "serve/shed")), "429s")
	p.setLayer("store.snapshots", "count", float64(counterDelta(c0, c1, "store/snapshots")), "server snapshots")
	storeLayers(p, stats, c0, c1, wal, walFacts)
	p.spanLayer(stats, "store.recover", "store.recover_ms")
	p.setLayer("store.recover_bytes", "B", float64(recBytes), "data dir size at recovery")
	for _, name := range []string{"session.add_facts", "session.discover", "session.absorb", "session.fingerprint", "kb.load"} {
		p.spanLayer(stats, name, name+"_ms")
	}
	for name, v := range p.layer {
		if _, ok := o.layer[name]; !ok {
			v.Base = "probe: " + v.Base
			o.layer[name] = v
		}
	}
	return nil
}
