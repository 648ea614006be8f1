package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"graphpa/internal/par"
)

// small5Requests is ten distinct requests: the five small benchmark
// programs, each under edgar and dgspan.
func small5Requests(t *testing.T) []*CompactRequest {
	t.Helper()
	var reqs []*CompactRequest
	for _, name := range []string{"bitcnts", "crc", "dijkstra", "patricia", "search"} {
		for _, miner := range []string{"edgar", "dgspan"} {
			req := benchRequest(t, name)
			req.Optimize.Miner = miner
			reqs = append(reqs, req)
		}
	}
	return reqs
}

// TestConfigDefaultJobPool pins the pool sizing: the zero Config runs
// one job per core.
func TestConfigDefaultJobPool(t *testing.T) {
	if got, want := (Config{}).jobWorkers(), par.Workers(0); got != want {
		t.Errorf("Config{} runs %d jobs, want par.Workers(0) = %d", got, want)
	}
	if got := (Config{JobWorkers: 3}).jobWorkers(); got != 3 {
		t.Errorf("Config{JobWorkers: 3} runs %d jobs", got)
	}
}

// TestConcurrentJobsMatchSerial: jobs mined side by side return the
// same bytes as the same jobs mined one at a time. Ten distinct
// requests go concurrently to a four-job server and one after another
// to a one-job server; every response pair must be byte-identical. The
// concurrent server's queue-wait histogram must count exactly the jobs
// it mined.
func TestConcurrentJobsMatchSerial(t *testing.T) {
	reqs := small5Requests(t)

	_, serialTS := newTestServer(t, Config{JobWorkers: 1})
	want := make([][]byte, len(reqs))
	for i, req := range reqs {
		code, _, body := postJSON(t, serialTS.URL+"/v1/compact", req)
		if code != http.StatusOK {
			t.Fatalf("serial %d: status %d: %s", i, code, body)
		}
		want[i] = body
	}

	_, ts := newTestServer(t, Config{JobWorkers: 4})
	got := make([][]byte, len(reqs))
	codes := make([]int, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/compact", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			got[i], errs[i] = io.ReadAll(resp.Body)
		}()
	}
	wg.Wait()
	for i := range reqs {
		if errs[i] != nil {
			t.Fatalf("concurrent %d: %v", i, errs[i])
		}
		if codes[i] != http.StatusOK {
			t.Fatalf("concurrent %d: status %d: %s", i, codes[i], got[i])
		}
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("request %d (%s): concurrent response differs from serial\nconcurrent: %s\nserial:     %s",
				i, reqs[i].minerName(), got[i], want[i])
		}
	}

	// Resubmissions are cache hits: they neither mine nor wait.
	for _, req := range reqs[:3] {
		if code, hdr, body := postJSON(t, ts.URL+"/v1/compact", req); code != http.StatusOK || hdr.Get("X-Cache") != "hit" {
			t.Fatalf("resubmission: status %d, X-Cache %q: %s", code, hdr.Get("X-Cache"), body)
		}
	}
	m := scrapeMetrics(t, ts.URL)
	mined := m["pad_jobs_mined_total"]
	waits := m[`pad_queue_wait_seconds_count{miner="dgspan"}`] + m[`pad_queue_wait_seconds_count{miner="edgar"}`]
	if mined != int64(len(reqs)) || waits != mined {
		t.Errorf("pad_jobs_mined_total %d, pad_queue_wait_seconds_count total %d; want both %d", mined, waits, len(reqs))
	}
	if mines := m[`pad_mine_duration_seconds_count{miner="edgar"}`]; mines != int64(len(reqs)/2) {
		t.Errorf("edgar mine histogram counts %d jobs, want %d", mines, len(reqs)/2)
	}
}

// scrapeMetrics reads /metrics into a map from sample name (labels
// included) to integer value; non-integer samples are skipped.
func scrapeMetrics(t *testing.T, url string) map[string]int64 {
	t.Helper()
	code, _, body := getURL(t, url+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	out := map[string]int64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseInt(line[i+1:], 10, 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}
