package service

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphpa/internal/bench"
	"graphpa/internal/core"
	"graphpa/internal/link"
)

func e2ePrograms() []string {
	if testing.Short() {
		return []string{"crc", "search"}
	}
	return bench.Names
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return svc, ts
}

func postJSON(t *testing.T, url string, req any) (int, http.Header, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, out
}

func benchRequest(t *testing.T, name string) *CompactRequest {
	t.Helper()
	src, err := bench.Source(name)
	if err != nil {
		t.Fatal(err)
	}
	return &CompactRequest{
		Source:   src,
		Optimize: OptimizeOptions{Miner: "edgar"},
	}
}

// directResult mirrors one request through the library, bypassing the
// service entirely, and renders it with the same encoder the server
// uses — the "fresh run" a served response must be byte-identical to.
func directResult(t *testing.T, req *CompactRequest) *result {
	t.Helper()
	img, err := core.Build(req.Source, req.compileOptions())
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.MinerByName(req.minerName())
	if err != nil {
		t.Fatal(err)
	}
	res, out, err := core.Optimize(img, m, req.paOptions())
	if err != nil {
		t.Fatal(err)
	}
	v, err := buildResult(req.Key(), res, out)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestServiceEndToEndDeterminism is the acceptance gate: every benchmark
// program submitted through a running server returns bytes identical to
// a direct pa.Optimize run, and a re-submission is served from cache —
// hit counter up, identical bytes.
func TestServiceEndToEndDeterminism(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	for _, name := range e2ePrograms() {
		req := benchRequest(t, name)
		want := directResult(t, req)

		code, hdr, body := postJSON(t, ts.URL+"/v1/compact", req)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, code, body)
		}
		if !bytes.Equal(body, want.body) {
			t.Errorf("%s: served response differs from direct run\nserved: %s\ndirect: %s", name, body, want.body)
			continue
		}
		if got := hdr.Get("X-Cache"); got != string(statusMiss) {
			t.Errorf("%s: first submission X-Cache = %q, want miss", name, got)
		}

		hitsBefore := svc.cache.counters().Hits
		code2, hdr2, body2 := postJSON(t, ts.URL+"/v1/compact", req)
		if code2 != http.StatusOK {
			t.Fatalf("%s: resubmit status %d", name, code2)
		}
		if got := hdr2.Get("X-Cache"); got != string(statusHit) {
			t.Errorf("%s: resubmission X-Cache = %q, want hit", name, got)
		}
		if svc.cache.counters().Hits != hitsBefore+1 {
			t.Errorf("%s: hit counter did not increment", name)
		}
		if !bytes.Equal(body2, body) {
			t.Errorf("%s: cached response not byte-identical to fresh one", name)
		}
	}
}

// TestServiceImageRoundTrip proves the wire format carries a runnable
// binary: the base64 image in a response decodes into an Image that
// behaves exactly like the unoptimized original.
func TestServiceImageRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := benchRequest(t, "crc")
	code, _, body := postJSON(t, ts.URL+"/v1/compact", req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp CompactResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	enc, err := base64.StdEncoding.DecodeString(resp.Image)
	if err != nil {
		t.Fatal(err)
	}
	img, err := link.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if img.Hash() != resp.ImageHash {
		t.Fatal("image_hash does not match the decoded image")
	}
	orig, err := core.Build(req.Source, req.compileOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyEquivalent(orig, img, nil); err != nil {
		t.Fatalf("optimized image from the wire diverges: %v", err)
	}
	if got := orig.Hash(); got == resp.ImageHash {
		t.Fatal("optimized image is identical to the original (no compaction happened?)")
	}
}

// TestServiceConcurrentDedupMinesOnce: N identical concurrent
// submissions must mine exactly once and all receive identical bytes.
func TestServiceConcurrentDedupMinesOnce(t *testing.T) {
	const n = 8
	svc, ts := newTestServer(t, Config{JobWorkers: n, QueueDepth: 2 * n})
	release := make(chan struct{})
	var mines int32
	svc.hookMineStart = func(string) {
		atomic.AddInt32(&mines, 1)
		<-release
	}
	req := benchRequest(t, "search")

	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _, bodies[i] = postJSON(t, ts.URL+"/v1/compact", req)
		}(i)
	}
	// All n submissions share one key: one owner mines (parked on the
	// hook), the other n-1 join its flight. Only then release the mine.
	deadline := time.Now().Add(30 * time.Second)
	for svc.cache.counters().Dedups < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d submissions joined the in-flight mine", svc.cache.counters().Dedups, n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := atomic.LoadInt32(&mines); got != 1 {
		t.Fatalf("mined %d times, want exactly 1", got)
	}
	cc := svc.cache.counters()
	if cc.Misses != 1 || cc.Dedups != n-1 {
		t.Fatalf("counters: misses=%d dedups=%d, want 1 and %d", cc.Misses, cc.Dedups, n-1)
	}
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("submission %d: status %d", i, codes[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("submission %d received different bytes", i)
		}
	}
}

// TestServiceAsyncJobs drives the queued/running/done lifecycle and the
// report endpoint, and checks async and sync agree byte-for-byte.
func TestServiceAsyncJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := benchRequest(t, "search")

	code, _, ack := postJSON(t, ts.URL+"/v1/jobs", req)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", code, ack)
	}
	var st jobStatusBody
	if err := json.Unmarshal(ack, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.ContentID == "" {
		t.Fatalf("acknowledgement incomplete: %s", ack)
	}
	if st.State != JobQueued && st.State != JobRunning && st.State != JobDone {
		t.Fatalf("unexpected state %q", st.State)
	}

	var final jobStatusBody
	deadline := time.Now().Add(2 * time.Minute)
	for {
		code, _, body := getURL(t, ts.URL+"/v1/jobs/"+st.ID)
		if code != http.StatusOK {
			t.Fatalf("poll status %d: %s", code, body)
		}
		if err := json.Unmarshal(body, &final); err != nil {
			t.Fatal(err)
		}
		if final.State == JobDone || final.State == JobFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", final.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if final.State != JobDone {
		t.Fatalf("job failed: %s", final.Error)
	}

	// Sync resubmission must be a cache hit with the exact same result
	// document the async job carries.
	codeSync, hdr, bodySync := postJSON(t, ts.URL+"/v1/compact", req)
	if codeSync != http.StatusOK || hdr.Get("X-Cache") != string(statusHit) {
		t.Fatalf("sync after async: status %d cache %q", codeSync, hdr.Get("X-Cache"))
	}
	if !bytes.Equal([]byte(final.Result), bodySync) {
		t.Fatal("async result differs from sync response")
	}

	// The report is served under both the job id and the content id.
	var resp CompactResponse
	if err := json.Unmarshal(bodySync, &resp); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{st.ID, st.ContentID} {
		code, _, rep := getURL(t, ts.URL+"/v1/report/"+id)
		if code != http.StatusOK {
			t.Fatalf("report %s: status %d", id, code)
		}
		if string(rep) != resp.Summary {
			t.Fatalf("report %s differs from response summary:\n%s\nvs\n%s", id, rep, resp.Summary)
		}
	}
}

func getURL(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// TestServiceHealthAndStats sanity-checks the observability surface.
func TestServiceHealthAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 7})
	code, _, body := getURL(t, ts.URL+"/healthz")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Fatalf("healthz: %d %s", code, body)
	}

	req := benchRequest(t, "search")
	if code, _, b := postJSON(t, ts.URL+"/v1/compact", req); code != http.StatusOK {
		t.Fatalf("compact: %d %s", code, b)
	}
	code, _, body = getURL(t, ts.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	var snap statsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("stats not JSON: %v\n%s", err, body)
	}
	if snap.Queue.Capacity != 7 {
		t.Errorf("queue capacity %d, want 7", snap.Queue.Capacity)
	}
	if snap.Totals.Mined != 1 {
		t.Errorf("mined %d, want 1", snap.Totals.Mined)
	}
	ms := snap.Miners["edgar"]
	if ms == nil || ms.Jobs != 1 {
		t.Fatalf("per-miner stats missing: %s", body)
	}
	if ms.Saved <= 0 || snap.Totals.InstructionsSaved != ms.Saved {
		t.Errorf("saved accounting off: miner %d total %d", ms.Saved, snap.Totals.InstructionsSaved)
	}
	var histTotal int64
	for _, v := range ms.Latency {
		histTotal += v
	}
	if histTotal != 1 {
		t.Errorf("latency histogram holds %d observations, want 1", histTotal)
	}
	if fmt.Sprint(snap.Jobs) == "" {
		t.Error("jobs-by-state section missing")
	}
}
