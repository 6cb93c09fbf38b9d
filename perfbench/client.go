package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// opBook accounts for every operation the benchmark sends: per
// endpoint, how many were sent, succeeded and failed, and why they
// failed (429 shed, 5xx, other status, transport error, or a library
// call returning an error).
type opBook struct {
	mu  sync.Mutex
	eps map[string]*opCount
}

type opCount struct {
	Sent      int64
	OK        int64
	Failed    int64
	Shed429   int64
	Server5xx int64
	Other     int64
	Transport int64
	CallErr   int64
}

func newOpBook() *opBook { return &opBook{eps: make(map[string]*opCount)} }

func (b *opBook) get(ep string) *opCount {
	c := b.eps[ep]
	if c == nil {
		c = &opCount{}
		b.eps[ep] = c
	}
	return c
}

// http records one HTTP exchange: code 0 means a transport error.
func (b *opBook) http(ep string, code int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.get(ep)
	c.Sent++
	switch {
	case code >= 200 && code < 300:
		c.OK++
		return
	case code == 0:
		c.Transport++
	case code == http.StatusTooManyRequests:
		c.Shed429++
	case code >= 500:
		c.Server5xx++
	default:
		c.Other++
	}
	c.Failed++
}

// call records one direct library call.
func (b *opBook) call(ep string, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.get(ep)
	c.Sent++
	if err != nil {
		c.CallErr++
		c.Failed++
		return
	}
	c.OK++
}

// partial reclassifies one acknowledged exchange as failed: a sync
// discover that answered 200 with a partial or failed job.
func (b *opBook) partial(ep string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.get(ep)
	c.OK--
	c.Other++
	c.Failed++
}

func (b *opBook) totals() (sent, failed int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, c := range b.eps {
		sent += c.Sent
		failed += c.Failed
	}
	return sent, failed
}

func (b *opBook) snapshot() map[string]opCount {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]opCount, len(b.eps))
	for k, c := range b.eps {
		out[k] = *c
	}
	return out
}

func (b *opBook) endpoints() []string {
	snap := b.snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// client is one closed-loop caller of the in-process server: it sends
// its next request only after the previous reply arrived.
type client struct {
	base string
	hc   *http.Client
	ops  *opBook
}

func newClient(base string, ops *opBook) *client {
	return &client{
		base: base,
		hc: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
		},
		ops: ops,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request, decodes a 2xx JSON reply into out (when non-nil)
// and records the outcome under ep. It returns the wall time of the
// exchange including reading the body.
func (c *client) do(ep, method, path, contentType string, body []byte, out any) (time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.ops.http(ep, 0)
		return time.Since(start), fmt.Errorf("%s %s: %w", method, path, err)
	}
	data, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if rerr != nil {
		c.ops.http(ep, 0)
		return elapsed, fmt.Errorf("%s %s: reading reply: %w", method, path, rerr)
	}
	c.ops.http(ep, resp.StatusCode)
	if resp.StatusCode/100 != 2 {
		return elapsed, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return elapsed, fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
		}
	}
	return elapsed, nil
}

func (c *client) postJSON(ep, path string, in, out any) (time.Duration, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	return c.do(ep, http.MethodPost, path, "application/json", body, out)
}

// jobReply is the subset of a discover reply the benchmark reads.
type jobReply struct {
	Job    string `json:"job"`
	Status string `json:"status"`
	Cached bool   `json:"cached"`
}

// resultReply is GET /api/jobs/{id}/result.
type resultReply struct {
	Fingerprint string     `json:"fingerprint"`
	Slices      []apiSlice `json:"slices"`
}

// apiSlice mirrors the service's slice JSON; its field order and tags
// match the normalization the checks digest.
type apiSlice struct {
	Source      string    `json:"source"`
	Description string    `json:"description"`
	Properties  []apiProp `json:"properties"`
	Entities    []string  `json:"entities"`
	Facts       int       `json:"facts"`
	NewFacts    int       `json:"new_facts"`
	Profit      float64   `json:"profit"`
}

type apiProp struct {
	Predicate string `json:"predicate"`
	Value     string `json:"value"`
}

// sessionReply is GET /api/sessions/{name}.
type sessionReply struct {
	CorpusFacts int    `json:"corpus_facts"`
	Fingerprint string `json:"fingerprint"`
	Recovered   bool   `json:"recovered"`
}

func (c *client) createSession(name string) error {
	_, err := c.postJSON("POST /api/sessions", "/api/sessions", map[string]string{"name": name}, nil)
	return err
}

func (c *client) postFacts(session string, tsv []byte) (time.Duration, error) {
	return c.do("POST facts", http.MethodPost, "/api/sessions/"+session+"/facts", "text/tab-separated-values", tsv, nil)
}

func (c *client) loadKB(session string, tsv []byte) (time.Duration, error) {
	return c.do("POST kb", http.MethodPost, "/api/sessions/"+session+"/kb?format=tsv", "text/tab-separated-values", tsv, nil)
}

func (c *client) discover(session string) (jobReply, time.Duration, error) {
	var j jobReply
	d, err := c.do("POST discover", http.MethodPost, "/api/sessions/"+session+"/discover?wait=true", "", nil, &j)
	if err == nil && j.Status != "done" {
		c.ops.partial("POST discover")
		err = fmt.Errorf("discover on %s ended %q", session, j.Status)
	}
	return j, d, err
}

func (c *client) result(job string) (resultReply, time.Duration, error) {
	var r resultReply
	d, err := c.do("GET result", http.MethodGet, "/api/jobs/"+job+"/result", "", nil, &r)
	return r, d, err
}

func (c *client) absorb(session, job string, idx int) (time.Duration, error) {
	return c.postJSON("POST absorb", "/api/sessions/"+session+"/absorb",
		map[string]any{"job": job, "slices": []int{idx}}, nil)
}

func (c *client) sessionInfo(session string) (sessionReply, error) {
	var s sessionReply
	_, err := c.do("GET session", http.MethodGet, "/api/sessions/"+session, "", nil, &s)
	return s, err
}
