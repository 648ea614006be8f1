package service

// Failure-path coverage: malformed source → 400 with the compiler
// diagnostic, full queue → 429 with Retry-After, and a disconnecting
// client cancelling its mining context mid-run.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"graphpa/internal/bench"
	"graphpa/internal/pa"
)

func TestMalformedSourceReturns400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  *CompactRequest
		want string // substring of the diagnostic
	}{
		{"parse error", &CompactRequest{Source: "int main( { return 0; }"}, ""},
		{"empty source", &CompactRequest{Source: "   "}, "empty source"},
		{"unknown miner", &CompactRequest{
			Source:   "int main() { return 0; }",
			Optimize: OptimizeOptions{Miner: "bogus"},
		}, "unknown miner"},
		{"bad asm", &CompactRequest{Source: "_start:\n\tfrobnicate r0\n", Asm: true}, ""},
		{"negative option", &CompactRequest{
			Source:   "int main() { return 0; }",
			Optimize: OptimizeOptions{MaxRounds: -1},
		}, "non-negative"},
		{"max_fragment over the limit", &CompactRequest{
			Source:   "int main() { return 0; }",
			Optimize: OptimizeOptions{MaxFragment: pa.MaxNodesLimit + 1},
		}, "max_fragment"},
	}
	for _, tc := range cases {
		code, _, body := postJSON(t, ts.URL+"/v1/compact", tc.req)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, code, body)
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: no diagnostic in %s", tc.name, body)
			continue
		}
		if tc.want != "" && !strings.Contains(eb.Error, tc.want) {
			t.Errorf("%s: diagnostic %q does not mention %q", tc.name, eb.Error, tc.want)
		}
	}

	// Non-JSON and unknown-field bodies are 400s too, before any work.
	resp, err := http.Post(ts.URL+"/v1/compact", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-JSON body: status %d, want 400", resp.StatusCode)
	}
}

func TestQueueFullReturns429(t *testing.T) {
	svc, ts := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 1})
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	svc.hookMineStart = func(string) {
		started <- struct{}{}
		<-release
	}
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	src := func(i int) string { return fmt.Sprintf("int main() { return %d; }", i) }
	submit := func(i int) (int, http.Header, []byte) {
		return postJSON(t, ts.URL+"/v1/jobs", &CompactRequest{Source: src(i)})
	}

	// Job 0 occupies the single worker (parked on the hook)...
	if code, _, body := submit(0); code != http.StatusAccepted {
		t.Fatalf("job 0: status %d: %s", code, body)
	}
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("job 0 never started mining")
	}
	// ...job 1 fills the depth-1 queue...
	if code, _, body := submit(1); code != http.StatusAccepted {
		t.Fatalf("job 1: status %d: %s", code, body)
	}
	// ...so job 2 must bounce with 429 and a Retry-After hint.
	code, hdr, body := submit(2)
	if code != http.StatusTooManyRequests {
		t.Fatalf("job 2: status %d, want 429: %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || !strings.Contains(eb.Error, "queue full") {
		t.Errorf("429 body lacks diagnostic: %s", body)
	}

	// Draining the queue clears the condition: everything accepted
	// completes and a new submission goes through. The queue slot only
	// frees once the worker dequeues job 1, so wait for job 1 to reach
	// the mining hook before submitting again.
	close(release)
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("job 1 never started mining after drain")
	}
	if code, _, body := submit(3); code != http.StatusAccepted {
		t.Fatalf("post-drain submit: status %d: %s", code, body)
	}
}

// slowAdversarialRequest is an input whose uncancelled mining runs for
// minutes: a real benchmark with an effectively unbounded pattern
// budget. The disconnect test must finish in seconds anyway.
func slowAdversarialRequest(t *testing.T) *CompactRequest {
	t.Helper()
	src, err := bench.Source("qsort")
	if err != nil {
		t.Fatal(err)
	}
	return &CompactRequest{
		Source:   src,
		Optimize: OptimizeOptions{Miner: "edgar", MaxPatterns: 500_000_000, MaxFragment: 12},
	}
}

func TestClientDisconnectCancelsMining(t *testing.T) {
	svc, ts := newTestServer(t, Config{JobWorkers: 1})
	started := make(chan struct{}, 1)
	svc.hookMineStart = func(string) {
		select {
		case started <- struct{}{}:
		default:
		}
	}

	body, err := json.Marshal(slowAdversarialRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/compact", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("mining never started")
	}
	cancel() // the client walks away mid-mine
	if err := <-errc; err == nil {
		t.Fatal("disconnected request reported success")
	}

	// The server must observe the cancellation promptly — the mine is
	// abandoned, not run to completion.
	deadline := time.Now().Add(30 * time.Second)
	for svc.stats.snapshot().Totals.Cancelled == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never recorded the cancelled mine")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// And the (single) worker is free again for real traffic.
	code, _, resp := postJSON(t, ts.URL+"/v1/compact", &CompactRequest{Source: "int main() { return 0; }"})
	if code != http.StatusOK {
		t.Fatalf("worker not freed after cancellation: status %d: %s", code, resp)
	}
}
