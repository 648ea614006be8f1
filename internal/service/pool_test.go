package service

// Job-pool coverage. pad shards its work across a pool of job workers,
// one serial mine each; these tests pin what that deployment may and
// may not change. Servers with different pools form a cluster that
// must answer byte-identically under one cache key; a job dying on one
// worker must not disturb the job beside it or cost the pool a worker;
// with every worker busy, new jobs queue, and their wait is measured;
// and the job store forgets its oldest finished jobs past its bound.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBodies posts each request to /v1/compact in turn and returns the
// response bodies.
func syncBodies(t *testing.T, url string, reqs []*CompactRequest) [][]byte {
	t.Helper()
	out := make([][]byte, len(reqs))
	for i, req := range reqs {
		code, _, body := postJSON(t, url+"/v1/compact", req)
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, code, body)
		}
		out[i] = body
	}
	return out
}

// reply is one HTTP answer from a request sent in the background.
type reply struct {
	code int
	body []byte
	err  error
}

// postInBackground sends req to url from a new goroutine (no t.Fatal
// off the test goroutine) and delivers the answer on the channel.
func postInBackground(url string, req any) <-chan reply {
	out := make(chan reply, 1)
	body, err := json.Marshal(req)
	if err != nil {
		out <- reply{err: err}
		return out
	}
	go func() {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			out <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		out <- reply{code: resp.StatusCode, body: b, err: err}
	}()
	return out
}

// metricFloat reads one sample of /metrics, labels included in name.
func metricFloat(t *testing.T, url, name string) float64 {
	t.Helper()
	code, _, body := getURL(t, url+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("unparseable metric line %q", line)
			}
			return f
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// poolHook coordinates tests with the workers: every mine start is
// announced on started, and the next `park` mines block until unpark.
// The test's cleanup unparks them too, before the server shuts down, so
// a failing test cannot leave a worker blocked.
type poolHook struct {
	started chan string
	release chan struct{}
	once    sync.Once
	mu      sync.Mutex
	park    int
}

func newPoolHook(t *testing.T, svc *Server) *poolHook {
	h := &poolHook{started: make(chan string, 64), release: make(chan struct{})}
	t.Cleanup(h.unpark)
	svc.hookMineStart = func(key string) {
		h.mu.Lock()
		parked := h.park > 0
		if parked {
			h.park--
		}
		h.mu.Unlock()
		h.started <- key
		if parked {
			<-h.release
		}
	}
	return h
}

func (h *poolHook) unpark() { h.once.Do(func() { close(h.release) }) }

func (h *poolHook) parkNext(n int) {
	h.mu.Lock()
	h.park = n
	h.mu.Unlock()
}

func (h *poolHook) waitStarted(t *testing.T, what string) string {
	t.Helper()
	select {
	case key := <-h.started:
		return key
	case <-time.After(60 * time.Second):
		t.Fatalf("%s never started mining", what)
		return ""
	}
}

// TestShardClusterByteIdentical: a cluster of pads with one, two and
// four job workers must answer the small benchmarks byte-identically.
// The one-job pad mines them one at a time through /v1/compact; the
// wider pads get them as one batch, which fans the programs out over
// their whole pool, and every batch job's result must equal the
// one-job pad's response.
func TestShardClusterByteIdentical(t *testing.T) {
	names := []string{"bitcnts", "crc", "dijkstra", "patricia", "search"}
	reqs := make([]*CompactRequest, len(names))
	for i, name := range names {
		reqs[i] = benchRequest(t, name)
	}
	_, refTS := newTestServer(t, Config{JobWorkers: 1})
	want := syncBodies(t, refTS.URL, reqs)

	for _, workers := range []int{2, 4} {
		_, ts := newTestServer(t, Config{JobWorkers: workers})
		st := submitBatchAndWait(t, ts.URL, names)
		if st.Totals.Failed != 0 || st.Totals.Done != len(names) {
			t.Fatalf("%d-job pad: batch totals %+v", workers, st.Totals)
		}
		for i, p := range st.Programs {
			code, _, body := getURL(t, ts.URL+"/v1/jobs/"+p.JobID)
			if code != http.StatusOK {
				t.Fatalf("%d-job pad, %s: job poll %d", workers, p.Name, code)
			}
			var js jobStatusBody
			if err := json.Unmarshal(body, &js); err != nil {
				t.Fatal(err)
			}
			if p.Name != names[i] {
				t.Fatalf("%d-job pad: batch program %d is %s, want %s", workers, i, p.Name, names[i])
			}
			if !bytes.Equal([]byte(js.Result), want[i]) {
				t.Errorf("%d-job pad, %s: result differs from the one-job pad's\ngot:  %s\nwant: %s",
					workers, p.Name, js.Result, want[i])
			}
		}
		if got := metricFloat(t, ts.URL, "pad_jobs_mined_total"); got != float64(len(names)) {
			t.Errorf("%d-job pad mined %v jobs, want %d", workers, got, len(names))
		}
	}
}

// TestShardClusterWorkerDeath: a job that dies mid-mine — its client
// disconnects while a second job mines on the other worker — must
// leave the second job's response byte-identical to a one-job pad's,
// be counted as cancelled, and cost the pool no worker: afterwards two
// jobs still mine at the same time.
func TestShardClusterWorkerDeath(t *testing.T) {
	crc := benchRequest(t, "crc")
	_, refTS := newTestServer(t, Config{JobWorkers: 1})
	want := syncBodies(t, refTS.URL, []*CompactRequest{crc})[0]

	svc, ts := newTestServer(t, Config{JobWorkers: 2})
	hook := newPoolHook(t, svc)

	body, err := json.Marshal(slowAdversarialRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slow, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/compact", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	slow.Header.Set("Content-Type", "application/json")
	slowErr := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(slow)
		if err == nil {
			resp.Body.Close()
		}
		slowErr <- err
	}()
	hook.waitStarted(t, "the doomed job")

	crcReply := postInBackground(ts.URL+"/v1/compact", crc)
	hook.waitStarted(t, "the sibling job")
	cancel() // the doomed job's client walks away while both jobs mine
	if err := <-slowErr; err == nil {
		t.Fatal("disconnected request reported success")
	}

	r := <-crcReply
	if r.err != nil {
		t.Fatalf("sibling job: %v", r.err)
	}
	if r.code != http.StatusOK {
		t.Fatalf("sibling job: status %d: %s", r.code, r.body)
	}
	if !bytes.Equal(r.body, want) {
		t.Fatalf("sibling job's response changed beside a dying job\ngot:  %s\nwant: %s", r.body, want)
	}
	deadline := time.Now().Add(60 * time.Second)
	for svc.stats.snapshot().Totals.Cancelled == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never recorded the cancelled job")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Both workers survive: two fresh jobs are mining at once.
	hook.parkNext(2)
	for i := 0; i < 2; i++ {
		code, _, b := postJSON(t, ts.URL+"/v1/jobs", &CompactRequest{Source: fmt.Sprintf("int main() { return %d; }", i)})
		if code != http.StatusAccepted {
			t.Fatalf("post-death job %d: status %d: %s", i, code, b)
		}
	}
	hook.waitStarted(t, "post-death job 0")
	hook.waitStarted(t, "post-death job 1")
	hook.unpark()
}

// TestShardClusterAllShardsDown: with every job worker held by a
// running job, a new job must queue rather than fail, be answered
// byte-identically once a worker frees, and report its wait: the
// queue-wait histogram counts every mined job, and its sum covers the
// time the queued job was held.
func TestShardClusterAllShardsDown(t *testing.T) {
	crc := benchRequest(t, "crc")
	_, refTS := newTestServer(t, Config{JobWorkers: 1})
	want := syncBodies(t, refTS.URL, []*CompactRequest{crc})[0]

	const workers = 2
	const hold = 300 * time.Millisecond
	svc, ts := newTestServer(t, Config{JobWorkers: workers})
	hook := newPoolHook(t, svc)
	hook.parkNext(workers)
	for i := 0; i < workers; i++ {
		code, _, b := postJSON(t, ts.URL+"/v1/jobs", &CompactRequest{Source: fmt.Sprintf("int main() { return %d; }", i)})
		if code != http.StatusAccepted {
			t.Fatalf("holding job %d: status %d: %s", i, code, b)
		}
		hook.waitStarted(t, fmt.Sprintf("holding job %d", i))
	}

	queued := postInBackground(ts.URL+"/v1/compact", crc)
	deadline := time.Now().Add(60 * time.Second)
	for metricFloat(t, ts.URL, "pad_queue_depth") != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the new job never reached the queue")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(hold)
	select {
	case r := <-queued:
		t.Fatalf("job answered while every worker was held: status %d: %s", r.code, r.body)
	default:
	}
	hook.unpark()

	r := <-queued
	if r.err != nil {
		t.Fatalf("queued job: %v", r.err)
	}
	if r.code != http.StatusOK {
		t.Fatalf("queued job: status %d: %s", r.code, r.body)
	}
	if !bytes.Equal(r.body, want) {
		t.Fatalf("queued job's response differs from the one-job pad's\ngot:  %s\nwant: %s", r.body, want)
	}
	// The holding jobs finish asynchronously; wait until all three have
	// been observed.
	mined := func() float64 { return metricFloat(t, ts.URL, "pad_jobs_mined_total") }
	for mined() != workers+1 {
		if time.Now().After(deadline) {
			t.Fatalf("pad_jobs_mined_total = %v, want %d", mined(), workers+1)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := metricFloat(t, ts.URL, `pad_queue_wait_seconds_count{miner="edgar"}`); got != workers+1 {
		t.Errorf("queue-wait histogram counts %v jobs, want %d", got, workers+1)
	}
	if sum := metricFloat(t, ts.URL, `pad_queue_wait_seconds_sum{miner="edgar"}`); sum < hold.Seconds() {
		t.Errorf("queue-wait sum %.3fs, want at least the %.3fs the job was held", sum, hold.Seconds())
	}
}

// TestShardCacheKeyTopologyFree pins the cache-key audit: the job pool
// is server deployment, so pads with one job, four jobs and the
// default pool must address an identical request by the same content
// ID (same cache line) and answer it with the same bytes, and a repeat
// submit must hit the cache rather than re-mine.
func TestShardCacheKeyTopologyFree(t *testing.T) {
	req := benchRequest(t, "crc")
	wantKey := req.Key()
	var first []byte
	for _, cfg := range []Config{{JobWorkers: 1}, {JobWorkers: 4}, {}} {
		_, ts := newTestServer(t, cfg)
		code, hdr, body := postJSON(t, ts.URL+"/v1/compact", req)
		if code != http.StatusOK {
			t.Fatalf("JobWorkers=%d: status %d: %s", cfg.JobWorkers, code, body)
		}
		var resp CompactResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.ID != wantKey {
			t.Fatalf("JobWorkers=%d: content ID %s, want %s — the pool leaked into Key()", cfg.JobWorkers, resp.ID, wantKey)
		}
		if hdr.Get("X-Cache") != string(statusMiss) {
			t.Fatalf("JobWorkers=%d: first submit was %q, want miss", cfg.JobWorkers, hdr.Get("X-Cache"))
		}
		if first == nil {
			first = body
		} else if !bytes.Equal(body, first) {
			t.Fatalf("JobWorkers=%d: response differs from the one-job pad's", cfg.JobWorkers)
		}
		_, hdr, again := postJSON(t, ts.URL+"/v1/compact", req)
		if hdr.Get("X-Cache") != string(statusHit) {
			t.Fatalf("JobWorkers=%d: repeat submit was %q, want hit", cfg.JobWorkers, hdr.Get("X-Cache"))
		}
		if !bytes.Equal(body, again) {
			t.Fatalf("JobWorkers=%d: cached response differs from the mined one", cfg.JobWorkers)
		}
	}
}

// TestShardWorkerEndpoints: pad serves no shard-worker endpoints. Every
// route of the old /v1/shard/walk family answers 404 without touching
// the job pool, /metrics exports no pad_shard_* family, and the pad
// keeps serving compactions.
func TestShardWorkerEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	routes := []struct{ method, path string }{
		{http.MethodPost, "/v1/shard/walk"},
		{http.MethodPost, "/v1/shard/walk/w000001/seed/0"},
		{http.MethodPost, "/v1/shard/walk/w000001/floor"},
		{http.MethodDelete, "/v1/shard/walk/w000001"},
	}
	for _, r := range routes {
		req, err := http.NewRequest(r.method, ts.URL+r.path, strings.NewReader(`{"floor":1}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: HTTP %d, want 404", r.method, r.path, resp.StatusCode)
		}
	}
	_, _, metrics := getURL(t, ts.URL+"/metrics")
	if strings.Contains(string(metrics), "pad_shard_") {
		t.Error("/metrics still exports a pad_shard_* family")
	}
	for _, name := range []string{"pad_jobs_mined_total", `pad_jobs{state="queued"}`, `pad_jobs{state="running"}`, `pad_jobs{state="failed"}`} {
		if got := metricFloat(t, ts.URL, name); got != 0 {
			t.Errorf("%s = %v after the shard routes, want 0", name, got)
		}
	}
	if code, _, body := postJSON(t, ts.URL+"/v1/compact", &CompactRequest{Source: "int main() { return 0; }"}); code != http.StatusOK {
		t.Fatalf("compact after the shard routes: status %d: %s", code, body)
	}
}

// TestShardSessionEviction: the job store keeps at most
// maxRetainedJobs jobs. Registering one past the bound forgets the
// oldest finished job — its id answers 404 — while an older job that
// is still running, the next-oldest finished job and the newest job
// all stay queryable.
func TestShardSessionEviction(t *testing.T) {
	svc, ts := newTestServer(t, Config{JobWorkers: 1})
	hook := newPoolHook(t, svc)
	hook.parkNext(1)
	code, _, body := postJSON(t, ts.URL+"/v1/jobs", &CompactRequest{Source: "int main() { return 1; }"})
	if code != http.StatusAccepted {
		t.Fatalf("running job: status %d: %s", code, body)
	}
	var running struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &running); err != nil || running.ID == "" {
		t.Fatalf("running job ack %s (err %v)", body, err)
	}
	hook.waitStarted(t, "the running job")

	// Fill the store to its bound with finished jobs.
	var finished []string
	for i := 0; len(finished) < maxRetainedJobs-1; i++ {
		j := svc.newJob(&CompactRequest{}, fmt.Sprintf("filler%d", i), context.Background())
		j.finish(nil, statusMiss, errors.New("filler"))
		finished = append(finished, j.id)
	}
	poll := func(id string) int {
		code, _, _ := getURL(t, ts.URL+"/v1/jobs/"+id)
		return code
	}
	if got := poll(finished[0]); got != http.StatusOK {
		t.Fatalf("oldest finished job at the bound: HTTP %d, want 200", got)
	}

	// One more job goes past the bound.
	code, _, body = postJSON(t, ts.URL+"/v1/jobs", &CompactRequest{Source: "int main() { return 2; }"})
	if code != http.StatusAccepted {
		t.Fatalf("newest job: status %d: %s", code, body)
	}
	var newest struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &newest); err != nil || newest.ID == "" {
		t.Fatalf("newest job ack %s (err %v)", body, err)
	}
	if got := poll(finished[0]); got != http.StatusNotFound {
		t.Errorf("oldest finished job past the bound: HTTP %d, want 404", got)
	}
	for _, id := range []string{running.ID, finished[1], newest.ID} {
		if got := poll(id); got != http.StatusOK {
			t.Errorf("job %s was evicted: HTTP %d", id, got)
		}
	}
	hook.unpark()
}
