package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"midas"
)

const (
	curateClients = 2
	curateBatch   = 20  // held-out facts posted per round
	curateHoldout = 0.2 // share of each domain's facts held out of set-up
	absorbEvery   = 3   // every third round absorbs the top slice
)

// curateInputs are serve-curate's generated inputs.
type curateInputs struct {
	kbTSV     []byte
	domains   []string
	loaded    map[string][]midas.Fact
	loadedTSV map[string][]byte
	held      map[string][]midas.Fact
}

// curateClient is one closed-loop caller owning one session.
type curateClient struct {
	name   string
	c      *client
	order  []string // domain visiting order
	next   int
	cursor map[string]int
	muts   []mutation // every acknowledged mutation after the KB load
	acked  int        // facts acknowledged
	rounds int
	m      *mirror // direct-path mirror, traced phase only
}

// curateStats holds one phase's samples.
type curateStats struct {
	ingest, rediscover, result, absorb, cached, afterAbsorb, round samples
	direct, directDiscover                                         samples
	processed, reused                                              int
	mirrored                                                       int
	rounds, repeatMiss                                             int
}

func (s *curateStats) merge(b *curateStats) {
	s.ingest = append(s.ingest, b.ingest...)
	s.rediscover = append(s.rediscover, b.rediscover...)
	s.result = append(s.result, b.result...)
	s.absorb = append(s.absorb, b.absorb...)
	s.cached = append(s.cached, b.cached...)
	s.afterAbsorb = append(s.afterAbsorb, b.afterAbsorb...)
	s.round = append(s.round, b.round...)
	s.direct = append(s.direct, b.direct...)
	s.directDiscover = append(s.directDiscover, b.directDiscover...)
	s.processed += b.processed
	s.reused += b.reused
	s.mirrored += b.mirrored
	s.rounds += b.rounds
	s.repeatMiss += b.repeatMiss
}

// runCurate is serve-curate: two clients, each curating its own durable
// session over HTTP — ingest, rediscover, read the result, absorb every
// third round, repeat the discover.
func runCurate(cfg config) (*outcome, error) {
	w := slimWorld(cfg.seed, cfg.tiny)
	groups, domains := byDomain(worldFacts(w))
	in := &curateInputs{kbTSV: worldKBTSV(w), domains: domains, loadedTSV: make(map[string][]byte)}
	in.loaded, in.held = splitHoldout(groups, domains, curateHoldout, cfg.seed)
	for _, d := range domains {
		in.loadedTSV[d] = factsTSV(in.loaded[d])
	}
	o := &outcome{ops: newOpBook()}
	startCounters := counters()
	baseHeap := liveHeapMB()

	// Set-up: start the durable server, load the KB and 80% of every
	// domain into each session, run one cold discover per session.
	reps := 3
	if cfg.trace {
		reps = 1
	}
	var (
		env     *serverEnv
		clients []*curateClient
		setups  []float64
		dir     string
	)
	for rep := 0; rep < reps; rep++ {
		if env != nil {
			closeClients(clients)
			env.kill()
		}
		dir = filepath.Join(cfg.dataDir, fmt.Sprintf("curate-%d", rep))
		var took time.Duration
		var err error
		env, clients, took, err = curateSetup(dir, in, o.ops, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, took.Seconds())
	}
	defer func() { closeClients(clients) }()
	if !cfg.tiny {
		warm := curateWarmup(env, clients, in)
		o.notes = append(o.notes, fmt.Sprintf("warm-up: %d rounds per client until the server's span buffer stopped growing", warm))
	}

	untracedS, tracedS := splitSeconds(cfg)
	before := readMem()
	st, elapsed := curateRounds(clients, in, untracedS, nil)
	after := readMem()
	heap := liveHeapMB() - baseHeap
	o.goLayer(before, after, st.rounds, "round")

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		if err := curateTraced(o, clients, in, tr, filepath.Join(cfg.dataDir, "mirror"), tracedS, st); err != nil {
			env.kill()
			return nil, err
		}
	}

	// The last discovery of each session, then a hard kill and recovery.
	last := make([]resultReply, len(clients))
	preKill := make([]sessionReply, len(clients))
	for i, cl := range clients {
		j, _, err := cl.c.discover(cl.name)
		if err == nil {
			last[i], _, err = cl.c.result(j.Job)
		}
		if err == nil {
			preKill[i], err = cl.c.sessionInfo(cl.name)
		}
		if err != nil {
			env.kill()
			return nil, fmt.Errorf("final discovery: %w", err)
		}
	}
	closeClients(clients)
	env.kill()
	recBytes := dirBytes(dir, nil)
	env2, recovery, _, err := startServer(dir, tr)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	acked := make([]int, len(clients))
	for i, cl := range clients {
		acked[i] = cl.acked
	}
	bad := recoveryCheck(env2, o.ops, names(clients), preKill, acked, cfg.breakIt)
	env2.close()
	o.addCheck("recovery", len(bad) == 0, "%d sessions after Store.Kill; %s", len(clients), strings.Join(bad, "; "))

	// Replay oracle: a from-scratch midas.Discover over each session's
	// acknowledged facts and KB must match its last served discovery.
	bad = nil
	for i, cl := range clients {
		want, fp, err := fromScratch(in.kbTSV, cl.muts)
		if err != nil {
			return nil, err
		}
		got := last[i].Slices
		if cfg.breakIt {
			got = corruptSlices(got)
		}
		if g, w := digest(got), digest(normSlices(want.Slices)); g != w {
			bad = append(bad, fmt.Sprintf("%s: served %s, from-scratch %s", cl.name, g, w))
		}
		if f := fmt.Sprintf("%016x", fp); f != last[i].Fingerprint {
			bad = append(bad, fmt.Sprintf("%s: served fingerprint %s, replay %s", cl.name, last[i].Fingerprint, f))
		}
	}
	o.addCheck("replay-oracle", len(bad) == 0, "%d sessions vs from-scratch midas.Discover; %s", len(clients), strings.Join(bad, "; "))

	rounds := ratio(float64(st.rounds), elapsed.Seconds())
	o.e2e = contractMetrics(median(setups), len(setups), st.rediscover, rounds,
		fmt.Sprintf("rounds/s, %d in %.2fs", st.rounds, elapsed.Seconds()), heap)
	o.latencyDetail("rediscover_ms", st.rediscover)
	o.addDetail("cached_discover_ms_p50", "ms", st.cached.p50(), fmt.Sprintf("n=%d, %d not cached", len(st.cached), st.repeatMiss))
	o.addDetail("absorb_ms_p50", "ms", st.absorb.p50(), fmt.Sprintf("n=%d", len(st.absorb)))
	o.addDetail("rounds_per_s", "1/s", rounds, fmt.Sprintf("%d rounds in %.2fs, %d clients", st.rounds, elapsed.Seconds(), curateClients))
	o.latencyDetail("ingest_ms", st.ingest)
	o.addDetail("recovery_s", "s", recovery.Seconds(), fmt.Sprintf("store.Open..Server.Recover over %d bytes", recBytes))
	o.addDetail("setup_s", "s", median(setups), fmt.Sprintf("median of %d", len(setups)))
	o.addDetail("heap_mb", "MB", heap, "live heap after GC, program state only")
	o.failedRatioDetail()
	o.addDetail("result_ms_p50", "ms", st.result.p50(), fmt.Sprintf("n=%d", len(st.result)))
	o.addDetail("rediscover_after_absorb_ms_p50", "ms", st.afterAbsorb.p50(), fmt.Sprintf("n=%d", len(st.afterAbsorb)))

	endCounters := counters()
	o.setLayer("serve.shed", "count", float64(counterDelta(startCounters, endCounters, "serve/shed")), "429s over the run")
	o.setLayer("store.snapshots", "count", float64(counterDelta(startCounters, endCounters, "store/snapshots")), "server snapshots over the run")
	if cfg.trace {
		o.setLayer("store.recover_bytes", "B", float64(recBytes), "data dir size at recovery")
		o.spanLayer(tr.stats(), "store.recover", "store.recover_ms")
		sweepLayers(o, w, tr)
		if err := probeServing(o, w, cfg.dataDir); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// curateTraced runs the traced half: each client gets a direct-path
// mirror rebuilt from its acknowledged mutations, then the rounds run
// again with spans around every HTTP and library call.
func curateTraced(o *outcome, clients []*curateClient, in *curateInputs, tr *tracer, mirrorDir string, seconds float64, untraced *curateStats) error {
	mst, err := mirrorStore(mirrorDir)
	if err != nil {
		return err
	}
	defer mst.Close()
	for _, cl := range clients {
		sess, err := replaySession(in.kbTSV, cl.muts, tr)
		if err != nil {
			return err
		}
		sess.Discover() // the prior the server's session also holds
		if cl.m, err = newMirror(mst, mirrorDir, cl.name, sess); err != nil {
			return err
		}
	}
	c0 := counters()
	st, _ := curateRounds(clients, in, seconds, tr)
	c1 := counters()
	var walBytes int64
	var walFacts int
	for _, cl := range clients {
		b, f := cl.m.walPerFact()
		walBytes += b
		walFacts += f
		cl.m = nil
	}
	stats := tr.stats()
	o.traceOverhead(untraced.rediscover, st.rediscover)
	o.setLayer("serve.facts_overhead_ms", "ms", st.ingest.p50()-st.direct.p50(),
		fmt.Sprintf("POST facts p50 %.4g ms (n=%d) minus AppendFacts+AddFacts p50 %.4g ms", st.ingest.p50(), len(st.ingest), st.direct.p50()))
	o.setLayer("serve.discover_overhead_ms", "ms", st.rediscover.p50()-st.directDiscover.p50(),
		fmt.Sprintf("sync discover p50 %.4g ms (n=%d) minus Fingerprint+DiscoverContext p50 %.4g ms", st.rediscover.p50(), len(st.rediscover), st.directDiscover.p50()))
	o.setLayer("serve.result_ms", "ms", st.result.p50(), fmt.Sprintf("GET result p50, n=%d", len(st.result)))
	hit, miss := counterDelta(c0, c1, "serve/cache/hit"), counterDelta(c0, c1, "serve/cache/miss")
	o.setLayer("serve.cache_hit_ratio", "ratio", ratio(float64(hit), float64(hit+miss)), fmt.Sprintf("serve/cache/hit %d / %d discovers", hit, hit+miss))
	storeLayers(o, stats, c0, c1, walBytes, walFacts)
	for _, name := range []string{"session.add_facts", "session.discover", "session.absorb", "session.fingerprint", "kb.load"} {
		o.spanLayer(stats, name, name+"_ms")
	}
	o.setLayer("framework.sources_processed", "count", ratio(float64(st.processed), float64(st.mirrored)),
		fmt.Sprintf("mean per incremental discover, %d discovers", st.mirrored))
	o.setLayer("framework.reuse_ratio", "ratio", ratio(float64(st.reused), float64(st.reused+st.processed)),
		fmt.Sprintf("sources reused %d / visited %d", st.reused, st.reused+st.processed))
	return nil
}

// corruptSlices is the break mode's wrong served result: the last
// slice's profit nudged, or a stray slice when there is none.
func corruptSlices(slices []apiSlice) []apiSlice {
	out := append([]apiSlice(nil), slices...)
	if len(out) == 0 {
		return append(out, apiSlice{Source: "corrupt"})
	}
	out[len(out)-1].Profit *= 1.5
	return out
}

func names(clients []*curateClient) []string {
	out := make([]string, len(clients))
	for i, cl := range clients {
		out[i] = cl.name
	}
	return out
}

func closeClients(clients []*curateClient) {
	for _, cl := range clients {
		cl.c.close()
	}
}

// curateSetup starts a server in dir and brings each client's session
// to the starting state; it returns the set-up wall time.
func curateSetup(dir string, in *curateInputs, ops *opBook, seed int64) (*serverEnv, []*curateClient, time.Duration, error) {
	start := time.Now()
	env, _, _, err := startServer(dir, nil)
	if err != nil {
		return nil, nil, 0, err
	}
	clients := make([]*curateClient, curateClients)
	for i := range clients {
		rng := rand.New(rand.NewSource(seed*31 + int64(i)))
		order := append([]string(nil), in.domains...)
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		clients[i] = &curateClient{
			name:   fmt.Sprintf("curate-%d", i),
			c:      newClient(env.base, ops),
			order:  order,
			cursor: make(map[string]int),
		}
	}
	err = parallel(len(clients), func(i int) error {
		cl := clients[i]
		if err := cl.c.createSession(cl.name); err != nil {
			return err
		}
		if _, err := cl.c.loadKB(cl.name, in.kbTSV); err != nil {
			return err
		}
		for _, d := range in.domains {
			if len(in.loaded[d]) == 0 {
				continue
			}
			if _, err := cl.c.postFacts(cl.name, in.loadedTSV[d]); err != nil {
				return err
			}
			cl.muts = append(cl.muts, mutation{facts: in.loaded[d]})
			cl.acked += len(in.loaded[d])
		}
		_, _, err := cl.c.discover(cl.name)
		return err
	})
	took := time.Since(start)
	if err != nil {
		closeClients(clients)
		env.kill()
		return nil, nil, 0, err
	}
	return env, clients, took, nil
}

// curateRounds runs every client's closed loop for the given seconds;
// each client finishes the round in progress at the deadline.
func curateRounds(clients []*curateClient, in *curateInputs, seconds float64, tr *tracer) (*curateStats, time.Duration) {
	per := make([]curateStats, len(clients))
	start := time.Now()
	parallel(len(clients), func(i int) error {
		for time.Since(start).Seconds() < seconds {
			clients[i].round(&per[i], in, tr)
		}
		return nil
	})
	elapsed := time.Since(start)
	total := &curateStats{}
	for i := range per {
		total.merge(&per[i])
	}
	return total, elapsed
}

// curateWarmup runs untimed rounds until the server's span buffer stops
// growing. The server keeps a bounded buffer of finished spans; once it
// is full, every finished span trims it by copying the rest, so each
// request costs more from then on. Rounds are timed only in that steady
// state, the one a long-running curation loop lives in. It returns the
// rounds each client ran.
func curateWarmup(env *serverEnv, clients []*curateClient, in *curateInputs) int {
	deadline := time.Now().Add(30 * time.Second)
	rounds := 0
	for time.Now().Before(deadline) {
		before := env.srv.Tracer().Len()
		parallel(len(clients), func(i int) error {
			clients[i].round(&curateStats{}, in, nil)
			return nil
		})
		rounds++
		if env.srv.Tracer().Len() <= before {
			break
		}
	}
	return rounds
}

// nextBatch takes the next held-out facts of the next domain in the
// client's order; once every held-out fact was posted it starts over.
func (cl *curateClient) nextBatch(in *curateInputs) []midas.Fact {
	for pass := 0; pass < 2; pass++ {
		for tries := 0; tries < len(cl.order); tries++ {
			d := cl.order[cl.next%len(cl.order)]
			cl.next++
			h, c := in.held[d], cl.cursor[d]
			if c < len(h) {
				end := min(c+curateBatch, len(h))
				cl.cursor[d] = end
				return h[c:end]
			}
		}
		clear(cl.cursor)
	}
	return nil
}

// round is one curation step; an operation that fails ends the round
// early (the failure is already counted in the op book).
func (cl *curateClient) round(st *curateStats, in *curateInputs, tr *tracer) {
	batch := cl.nextBatch(in)
	body := factsTSV(batch)
	start := time.Now()
	rsp := tr.root("curate.round")
	defer rsp.end()

	sp := tr.child("serve.post_facts", rsp)
	d, err := cl.c.postFacts(cl.name, body)
	sp.end()
	if err != nil {
		return
	}
	st.ingest.add(d)
	cl.muts = append(cl.muts, mutation{facts: batch})
	cl.acked += len(batch)
	if cl.m != nil {
		if direct, err := cl.m.addFacts(batch, rsp, tr); err == nil {
			st.direct.add(direct)
		}
	}

	sp = tr.child("serve.discover", rsp)
	j, d, err := cl.c.discover(cl.name)
	sp.end()
	if err != nil {
		return
	}
	st.rediscover.add(d)
	if cl.m != nil {
		t := time.Now()
		if res, err := cl.m.discover(rsp, tr); err == nil {
			st.directDiscover.add(time.Since(t))
			st.processed += res.SourcesProcessed
			st.reused += res.SourcesReused
			st.mirrored++
		}
	}

	sp = tr.child("serve.get_result", rsp)
	res, d, err := cl.c.result(j.Job)
	sp.end()
	if err != nil {
		return
	}
	st.result.add(d)

	cl.rounds++
	absorbed := false
	if cl.rounds%absorbEvery == 0 && len(res.Slices) > 0 {
		sp = tr.child("serve.absorb", rsp)
		d, err := cl.c.absorb(cl.name, j.Job, 0)
		sp.end()
		if err != nil {
			return
		}
		st.absorb.add(d)
		top := res.Slices[0]
		cl.muts = append(cl.muts, mutation{absorb: &top})
		absorbed = true
		if cl.m != nil {
			cl.m.absorb(top, rsp, tr)
		}
	}

	sp = tr.child("serve.repeat_discover", rsp)
	j2, d, err := cl.c.discover(cl.name)
	sp.end()
	if err != nil {
		return
	}
	if absorbed {
		st.afterAbsorb.add(d)
	} else {
		st.cached.add(d)
		if !j2.Cached {
			st.repeatMiss++
		}
	}
	st.round.add(time.Since(start))
	st.rounds++
}

// parallel runs fn(0..n-1) concurrently and returns the first error.
func parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
