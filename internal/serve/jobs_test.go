package serve

import (
	"context"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"midas"
	"midas/internal/obs"
)

type jobList struct {
	Jobs    []jobResp `json:"jobs"`
	Evicted struct {
		Ran    int64 `json:"ran"`
		Cached int64 `json:"cached"`
	} `json:"evicted"`
}

// TestJobRegistryBounded: past jobRetention finished jobs the oldest
// ages out with its trace — its ID answers 404 like an unknown one —
// while the newest stay servable, a running job is never evicted, and
// /api/jobs lists at most the cap plus the running jobs, with the aged
// out ones counted so the list still reconciles with the counters.
func TestJobRegistryBounded(t *testing.T) {
	reg := obs.New()
	s, ts := newTestServer(t, Options{MaxInFlight: 2, Registry: reg})
	for _, name := range []string{"park", "churn"} {
		do(t, "POST", ts.URL+"/api/sessions", strings.NewReader(`{"name":"`+name+`"}`), "application/json", nil)
		postFacts(t, ts.URL, name, corpusFacts(name, 2))
	}
	park := s.session("park").sess
	release := make(chan struct{})
	var cacheable atomic.Bool
	s.discover = func(ctx context.Context, sess *midas.Session) (*midas.Result, error) {
		if sess == park {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return &midas.Result{}, ctx.Err()
		}
		// A result stamped with the session's fingerprint is cached, so
		// the next discover is a cache hit; an unstamped one never is.
		if cacheable.Load() {
			return &midas.Result{Fingerprint: sess.Fingerprint()}, nil
		}
		return &midas.Result{}, nil
	}
	var parked jobResp
	if code := do(t, "POST", ts.URL+"/api/sessions/park/discover", nil, "", &parked); code != http.StatusAccepted {
		t.Fatalf("parked discover: HTTP %d", code)
	}
	discover := func() jobResp {
		t.Helper()
		var j jobResp
		if code := do(t, "POST", ts.URL+"/api/sessions/churn/discover?wait=true", nil, "", &j); code != http.StatusOK || j.Status != StateDone {
			t.Fatalf("discover: HTTP %d status %q", code, j.Status)
		}
		return j
	}

	first := discover()
	firstTrace := s.job(first.Job).trace
	for i := 1; i < jobRetention; i++ {
		discover()
	}
	full := s.Tracer().Len()
	const extra = 8
	var newest jobResp
	for i := 0; i < extra; i++ {
		newest = discover()
	}
	// Each discover added a two-span trace (request and job) and evicted
	// one of the same size.
	if got := s.Tracer().Len(); got != full {
		t.Errorf("Tracer().Len() = %d after %d evictions, want it flat at %d", got, extra, full)
	}
	if recs := s.Tracer().TakeTrace(firstTrace); recs != nil {
		t.Errorf("evicted job's trace still retained: %d spans", len(recs))
	}

	var e struct {
		Error string `json:"error"`
	}
	if code := do(t, "GET", ts.URL+"/api/jobs/"+first.Job, nil, "", &e); code != http.StatusNotFound || !strings.Contains(e.Error, "no job") {
		t.Errorf("evicted job: HTTP %d %q, want 404 no job", code, e.Error)
	}
	if code := do(t, "GET", ts.URL+"/api/jobs/"+first.Job+"/result", nil, "", nil); code != http.StatusNotFound {
		t.Errorf("evicted job result: HTTP %d, want 404", code)
	}
	if code := do(t, "GET", ts.URL+"/api/jobs/"+newest.Job+"/result", nil, "", nil); code != http.StatusOK {
		t.Errorf("newest job result: HTTP %d, want 200", code)
	}
	var pj jobResp
	if code := do(t, "GET", ts.URL+"/api/jobs/"+parked.Job, nil, "", &pj); code != http.StatusOK || pj.Status != StateRunning {
		t.Errorf("parked job: HTTP %d status %q, want 200 running", code, pj.Status)
	}
	var list jobList
	do(t, "GET", ts.URL+"/api/jobs", nil, "", &list)
	if len(list.Jobs) != jobRetention+1 || list.Evicted.Ran != extra || list.Evicted.Cached != 0 {
		t.Errorf("job list: %d jobs, evicted %+v; want %d jobs and %d ran evicted",
			len(list.Jobs), list.Evicted, jobRetention+1, extra)
	}

	// The parked job, once released, finishes as the newest job.
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for pj.Status == StateRunning && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		if code := do(t, "GET", ts.URL+"/api/jobs/"+parked.Job, nil, "", &pj); code != http.StatusOK {
			t.Fatalf("released parked job: HTTP %d", code)
		}
	}
	if pj.Status != StateDone {
		t.Fatalf("released parked job status %q, want done", pj.Status)
	}

	// Cache hits carry no job trace, so each one that evicts a discovery
	// job frees that job's two spans for its one request span.
	cacheable.Store(true)
	discover()
	before := s.Tracer().Len()
	for i := 0; i < extra; i++ {
		if j := discover(); !j.Cached {
			t.Fatalf("discover %d missed the result cache", i)
		}
	}
	if got := s.Tracer().Len(); got >= before {
		t.Errorf("Tracer().Len() = %d after cache hits evicted traced jobs, want below %d", got, before)
	}

	list = jobList{}
	do(t, "GET", ts.URL+"/api/jobs", nil, "", &list)
	ran, cached := list.Evicted.Ran, list.Evicted.Cached
	for _, j := range list.Jobs {
		if j.Cached {
			cached++
		} else {
			ran++
		}
	}
	if len(list.Jobs) != jobRetention {
		t.Errorf("job list holds %d jobs, want %d", len(list.Jobs), jobRetention)
	}
	if want := reg.Counter("serve/jobs/finished").Value(); ran != want {
		t.Errorf("listed + evicted ran jobs = %d, serve/jobs/finished = %d", ran, want)
	}
	if want := reg.Counter("serve/cache/hit").Value(); cached != want {
		t.Errorf("listed + evicted cached jobs = %d, serve/cache/hit = %d", cached, want)
	}
}

// TestDrainCountsAdmittedJob: an async job counts as in flight from the
// moment it is admitted, not from when its goroutine first runs. With
// one P, the job goroutine cannot run before Drain reads the count.
func TestDrainCountsAdmittedJob(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s, _ := newTestServer(t, Options{Registry: obs.New()})
	s.discover = blockingDiscover(nil)
	sn, err := s.createSession("g", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.startDiscover(context.Background(), sn, false, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if n := s.Drain(ctx); n != 1 {
		t.Errorf("Drain reported %d in-flight jobs, want 1", n)
	}
}
