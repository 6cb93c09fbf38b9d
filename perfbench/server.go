package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"midas/internal/obs"
	"midas/internal/serve"
	"midas/internal/store"
)

// serverEnv is one in-process midas-serve on loopback over a durable
// store at default settings (batch fsync, default snapshot threshold),
// the configuration cmd/midas-serve runs with -data-dir.
type serverEnv struct {
	dir  string
	st   *store.Store
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan struct{}
}

// startServer opens the store in dir, recovers whatever it holds and
// starts serving. recovery is the time from store.Open until
// Server.Recover returned; tr, when tracing, gets store.open and
// store.recover spans.
func startServer(dir string, tr *tracer) (env *serverEnv, recovery time.Duration, rec *store.Recovery, err error) {
	start := time.Now()
	sp := tr.root("store.open")
	st, err := store.Open(store.Options{Dir: dir})
	sp.end()
	if err != nil {
		return nil, 0, nil, err
	}
	srv := serve.New(serve.Options{Store: st})
	sp = tr.root("store.recover")
	rec, err = srv.Recover(context.Background())
	sp.end()
	recovery = time.Since(start)
	if err != nil {
		st.Close()
		srv.Close()
		return nil, 0, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		srv.Close()
		return nil, 0, nil, err
	}
	env = &serverEnv{
		dir:  dir,
		st:   st,
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(env.done)
		env.hs.Serve(ln) // returns http.ErrServerClosed once kill or close runs
	}()
	return env, recovery, rec, nil
}

// kill is the in-process SIGKILL: the store freezes without flushing,
// the listener and connections close, in-flight jobs are canceled.
func (e *serverEnv) kill() {
	e.st.Kill()
	e.hs.Close()
	<-e.done
	e.srv.Close()
}

// close shuts the server down cleanly without a drain snapshot: the
// store flushes and closes its logs.
func (e *serverEnv) close() {
	e.hs.Close()
	<-e.done
	e.srv.Close()
	e.st.Close()
}

// dirBytes sums the sizes of the regular files under dir whose names
// match the filter (nil = all).
func dirBytes(dir string, keep func(name string) bool) int64 {
	var total int64
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() && (keep == nil || keep(info.Name())) {
			total += info.Size()
		}
		return nil
	})
	return total
}

func isWAL(name string) bool {
	return strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log")
}

// counters snapshots the process-wide registry's counters, which the
// server, store, sessions and framework all report into by default.
func counters() map[string]int64 {
	return obs.Default().Snapshot().Counters
}

// counterDelta is after[name] - before[name].
func counterDelta(before, after map[string]int64, name string) int64 {
	return after[name] - before[name]
}

// recoveryCheck compares each recovered session with its state before
// the kill: it must be marked recovered, carry the pre-kill
// fingerprint, and hold exactly the facts the server acknowledged. It
// returns one line per mismatch; breakIt drops a fact from every
// recovered corpus first.
func recoveryCheck(env *serverEnv, ops *opBook, sessions []string, preKill []sessionReply, acked []int, breakIt bool) []string {
	c := newClient(env.base, ops)
	defer c.close()
	var bad []string
	for i, name := range sessions {
		got, err := c.sessionInfo(name)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		if breakIt {
			got.CorpusFacts--
		}
		if !got.Recovered || got.Fingerprint != preKill[i].Fingerprint || got.CorpusFacts != acked[i] {
			bad = append(bad, fmt.Sprintf("%s: recovered=%v fingerprint %s (pre-kill %s) corpus %d (acknowledged %d)",
				name, got.Recovered, got.Fingerprint, preKill[i].Fingerprint, got.CorpusFacts, acked[i]))
		}
	}
	return bad
}
