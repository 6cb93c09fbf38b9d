package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"midas"
	"midas/internal/datagen"
)

const (
	ingestClients = 2
	ingestBatch   = 200 // facts per POST
	ingestSetups  = 5   // set-ups timed before the first pass, which times its own
)

// ingestStats holds the samples of one or more passes.
type ingestStats struct {
	post, direct       samples
	setups             []float64
	recovery, recBytes []float64
	heap               []float64
	facts              int
	stream             time.Duration
	walBytes           int64
	walFacts           int
	passes             int
	bad                []string
}

// runIngest is serve-ingest: two clients stream 200-fact TSV batches of
// ReVerbLike{Scale: 2} into their own durable sessions; each pass ends
// with Store.Kill and a recovery of the data directory.
func runIngest(cfg config) (*outcome, error) {
	scale := 2.0
	if cfg.tiny {
		scale = 0.05
	}
	w := datagen.ReVerbLike(datagen.FullParams{Scale: scale, Seed: cfg.seed})
	facts := worldFacts(w)
	var batches [][]midas.Fact
	var bodies [][]byte
	for i := 0; i < len(facts); i += ingestBatch {
		b := facts[i:min(i+ingestBatch, len(facts))]
		batches = append(batches, b)
		bodies = append(bodies, factsTSV(b))
	}
	o := &outcome{ops: newOpBook()}
	startCounters := counters()
	baseHeap := liveHeapMB()

	st := &ingestStats{}
	for r := 0; r < ingestSetups; r++ {
		dir := filepath.Join(cfg.dataDir, fmt.Sprintf("ingest-setup-%d", r))
		env, clients, took, err := ingestSetup(dir, o.ops)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		st.setups = append(st.setups, took.Seconds())
		closeAll(clients)
		env.kill()
		os.RemoveAll(dir)
	}

	passes := 0
	phase := func(seconds float64, tr *tracer, ps *ingestStats) error {
		start := time.Now()
		for ps.passes == 0 || time.Since(start).Seconds() < seconds {
			dir := filepath.Join(cfg.dataDir, fmt.Sprintf("ingest-pass-%d", passes))
			passes++
			if err := ingestPass(dir, batches, bodies, o.ops, tr, ps, baseHeap, cfg.breakIt); err != nil {
				return err
			}
			os.RemoveAll(dir)
		}
		return nil
	}

	untracedS, tracedS := splitSeconds(cfg)
	before := readMem()
	if err := phase(untracedS, nil, st); err != nil {
		return nil, err
	}
	after := readMem()
	o.goLayer(before, after, len(st.post), "POST")

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		ts := &ingestStats{}
		c0 := counters()
		if err := phase(tracedS, tr, ts); err != nil {
			return nil, err
		}
		c1 := counters()
		stats := tr.stats()
		o.traceOverhead(st.post, ts.post)
		o.setLayer("serve.facts_overhead_ms", "ms", ts.post.p50()-ts.direct.p50(),
			fmt.Sprintf("POST facts p50 %.4g ms (n=%d) minus AppendFacts+AddFacts p50 %.4g ms", ts.post.p50(), len(ts.post), ts.direct.p50()))
		storeLayers(o, stats, c0, c1, ts.walBytes, ts.walFacts)
		o.spanLayer(stats, "store.recover", "store.recover_ms")
		o.setLayer("store.recover_bytes", "B", median(ts.recBytes), fmt.Sprintf("median data dir size over %d recoveries", len(ts.recBytes)))
		o.spanLayer(stats, "session.add_facts", "session.add_facts_ms")
		st.bad = append(st.bad, ts.bad...)
	}
	endCounters := counters()
	o.setLayer("serve.shed", "count", float64(counterDelta(startCounters, endCounters, "serve/shed")), "429s over the run")
	o.setLayer("store.snapshots", "count", float64(counterDelta(startCounters, endCounters, "store/snapshots")), "server snapshots over the run")
	if cfg.trace {
		slim := slimWorld(cfg.seed, cfg.tiny)
		sweepLayers(o, slim, tr)
		if err := probeServing(o, slim, cfg.dataDir); err != nil {
			return nil, err
		}
	}

	o.addCheck("recovery", len(st.bad) == 0, "%d sessions over %d passes after Store.Kill; %s",
		ingestClients*passes, passes, strings.Join(st.bad, "; "))
	rate := ratio(float64(st.facts), st.stream.Seconds())
	rateBase := fmt.Sprintf("facts acknowledged/s, %d in %.2fs of streaming over %d passes", st.facts, st.stream.Seconds(), st.passes)
	heap := median(st.heap)
	o.e2e = contractMetrics(median(st.setups), len(st.setups), st.post, rate, rateBase, heap)
	o.latencyDetail("ingest_ms", st.post)
	o.addDetail("ingest_facts_per_s", "1/s", rate, rateBase)
	o.addDetail("recovery_s", "s", median(st.recovery), fmt.Sprintf("median of %d, store.Open..Server.Recover over median %.0f bytes", len(st.recovery), median(st.recBytes)))
	o.addDetail("setup_s", "s", median(st.setups), fmt.Sprintf("median of %d", len(st.setups)))
	o.addDetail("heap_mb", "MB", heap, fmt.Sprintf("median over %d passes of the live heap after GC at the end of streaming", len(st.heap)))
	o.failedRatioDetail()
	return o, nil
}

// ingestSetup starts an empty durable server in dir and creates one
// session per client; it returns the set-up wall time.
func ingestSetup(dir string, ops *opBook) (*serverEnv, []*client, time.Duration, error) {
	start := time.Now()
	env, _, _, err := startServer(dir, nil)
	if err != nil {
		return nil, nil, 0, err
	}
	clients := make([]*client, ingestClients)
	for i := range clients {
		clients[i] = newClient(env.base, ops)
	}
	err = parallel(ingestClients, func(i int) error { return clients[i].createSession(ingestName(i)) })
	took := time.Since(start)
	if err != nil {
		closeAll(clients)
		env.kill()
		return nil, nil, 0, err
	}
	return env, clients, took, nil
}

func ingestName(i int) string { return fmt.Sprintf("ingest-%d", i) }

func closeAll(clients []*client) {
	for _, c := range clients {
		c.close()
	}
}

// ingestPass is one full stream: set up, every client posts its share
// of the batches (batch i goes to client i mod 2), then the store is
// hard-killed and recovered and each session checked against what was
// acknowledged. With a tracer, each POST is followed by the same
// append and apply done directly on a mirror.
func ingestPass(dir string, batches [][]midas.Fact, bodies [][]byte, ops *opBook, tr *tracer, ps *ingestStats, baseHeap float64, breakIt bool) error {
	env, clients, took, err := ingestSetup(dir, ops)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer closeAll(clients)
	ps.setups = append(ps.setups, took.Seconds())

	mirrors := make([]*mirror, ingestClients)
	if tr != nil {
		mdir := dir + "-mirror"
		mst, err := mirrorStore(mdir)
		if err != nil {
			env.kill()
			return err
		}
		defer os.RemoveAll(mdir)
		defer mst.Close()
		for i := range mirrors {
			if mirrors[i], err = newMirror(mst, mdir, ingestName(i), midas.NewSession(nil, nil)); err != nil {
				env.kill()
				return err
			}
		}
	}

	per := make([]ingestStats, ingestClients)
	acked := make([]int, ingestClients)
	start := time.Now()
	parallel(ingestClients, func(c int) error {
		for i := c; i < len(batches); i += ingestClients {
			rsp := tr.root("ingest.post")
			sp := tr.child("serve.post_facts", rsp)
			d, err := clients[c].postFacts(ingestName(c), bodies[i])
			sp.end()
			if err != nil {
				rsp.end()
				continue
			}
			per[c].post.add(d)
			acked[c] += len(batches[i])
			if m := mirrors[c]; m != nil {
				if direct, err := m.addFacts(batches[i], rsp, tr); err == nil {
					per[c].direct.add(direct)
				}
			}
			rsp.end()
		}
		return nil
	})
	ps.stream += time.Since(start)
	for c := range per {
		ps.post = append(ps.post, per[c].post...)
		ps.direct = append(ps.direct, per[c].direct...)
		ps.facts += acked[c]
		if m := mirrors[c]; m != nil {
			b, f := m.walPerFact()
			ps.walBytes += b
			ps.walFacts += f
		}
	}
	if tr == nil {
		ps.heap = append(ps.heap, liveHeapMB()-baseHeap)
	}

	preKill := make([]sessionReply, ingestClients)
	for i := range preKill {
		if preKill[i], err = clients[0].sessionInfo(ingestName(i)); err != nil {
			env.kill()
			return fmt.Errorf("pre-kill state: %w", err)
		}
	}
	closeAll(clients)
	env.kill()
	ps.recBytes = append(ps.recBytes, float64(dirBytes(dir, nil)))
	env2, recovery, _, err := startServer(dir, tr)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	ps.recovery = append(ps.recovery, recovery.Seconds())
	names := []string{ingestName(0), ingestName(1)}
	ps.bad = append(ps.bad, recoveryCheck(env2, ops, names, preKill, acked, breakIt)...)
	env2.close()
	ps.passes++
	return nil
}
