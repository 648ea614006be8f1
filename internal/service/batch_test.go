package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// submitBatchAndWait posts a batch of benchmark programs and polls until
// every program settles.
func submitBatchAndWait(t *testing.T, url string, names []string) BatchStatusBody {
	t.Helper()
	var req BatchRequest
	for _, name := range names {
		cr := benchRequest(t, name)
		req.Programs = append(req.Programs, BatchProgram{Name: name, Source: cr.Source})
		req.Optimize = cr.Optimize
	}
	code, _, ack := postJSON(t, url+"/v1/batch", &req)
	if code != http.StatusAccepted {
		t.Fatalf("batch submit status %d: %s", code, ack)
	}
	var accepted struct {
		ID       string `json:"id"`
		Programs int    `json:"programs"`
	}
	if err := json.Unmarshal(ack, &accepted); err != nil {
		t.Fatal(err)
	}
	if accepted.Programs != len(names) {
		t.Fatalf("acknowledged %d programs, want %d", accepted.Programs, len(names))
	}
	deadline := time.Now().Add(5 * time.Minute)
	for {
		code, _, body := getURL(t, url+"/v1/batch/"+accepted.ID)
		if code != http.StatusOK {
			t.Fatalf("batch poll status %d: %s", code, body)
		}
		var st BatchStatusBody
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == "done" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch stuck: %s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServiceBatchMatchesDirect is the corpus acceptance test: a batch
// produces per-program images, stats and job results byte-identical to
// direct library runs, and resubmitting it is pure cache.
func TestServiceBatchMatchesDirect(t *testing.T) {
	names := e2ePrograms()
	want := map[string]*result{}
	for _, name := range names {
		want[name] = directResult(t, benchRequest(t, name))
	}

	_, ts := newTestServer(t, Config{})
	st1 := submitBatchAndWait(t, ts.URL, names)
	if st1.Totals.Failed != 0 || st1.Totals.Done != len(names) {
		t.Fatalf("first batch: %+v", st1.Totals)
	}
	for _, p := range st1.Programs {
		w := want[p.Name]
		if p.ImageHash != w.imageHash {
			t.Errorf("%s: batch image hash %s differs from direct run %s", p.Name, p.ImageHash, w.imageHash)
		}
		if p.Before != w.before || p.After != w.after || p.Saved != w.saved {
			t.Errorf("%s: batch stats %d->%d differ from direct %d->%d", p.Name, p.Before, p.After, w.before, w.after)
		}
		// Full byte-identity through the job the batch program rode on.
		code, _, body := getURL(t, ts.URL+"/v1/jobs/"+p.JobID)
		if code != http.StatusOK {
			t.Fatalf("%s: job poll %d", p.Name, code)
		}
		var js jobStatusBody
		if err := json.Unmarshal(body, &js); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal([]byte(js.Result), w.body) {
			t.Errorf("%s: batch job result differs from direct run", p.Name)
		}
	}

	// Resubmission is pure cache.
	st2 := submitBatchAndWait(t, ts.URL, names)
	for _, p := range st2.Programs {
		if p.Cache != string(statusHit) {
			t.Errorf("%s: resubmission cache %q, want hit", p.Name, p.Cache)
		}
	}
}

func TestServiceBatchValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, req := range map[string]BatchRequest{
		"empty":     {},
		"unnamed":   {Programs: []BatchProgram{{Source: "int main() { return 0; }"}}},
		"duplicate": {Programs: []BatchProgram{{Name: "a", Source: "int main() { return 0; }"}, {Name: "a", Source: "int main() { return 1; }"}}},
		"badminer":  {Programs: []BatchProgram{{Name: "a", Source: "int main() { return 0; }"}}, Optimize: OptimizeOptions{Miner: "nope"}},
	} {
		if code, _, body := postJSON(t, ts.URL+"/v1/batch", &req); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, code, body)
		}
	}
	if code, _, _ := getURL(t, ts.URL+"/v1/batch/b9999"); code != http.StatusNotFound {
		t.Errorf("unknown batch id: status %d, want 404", code)
	}
}

// TestServiceMetrics checks the Prometheus text surface: counters move
// with work, the latency histogram is cumulative and complete, and the
// exported families are exactly the documented ones — the retired
// dictionary series (pad_dict_*) and shard series are gone.
func TestServiceMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	req := benchRequest(t, "search")
	if code, _, b := postJSON(t, ts.URL+"/v1/compact", req); code != http.StatusOK {
		t.Fatalf("compact: %d %s", code, b)
	}
	code, hdr, body := getURL(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE pad_requests_total counter",
		"pad_jobs_mined_total 1",
		"# TYPE pad_mine_duration_seconds histogram",
		`pad_mine_duration_seconds_bucket{miner="edgar",le="+Inf"} 1`,
		`pad_mine_duration_seconds_count{miner="edgar"} 1`,
		`pad_jobs{state="done"} 1`,
		"pad_cache_misses_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q\n%s", want, text)
		}
	}
	if !strings.Contains(text, `pad_mine_duration_seconds_sum{miner="edgar"} `) {
		t.Error("histogram sum line missing")
	}
	var families []string
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			families = append(families, f[2])
		}
	}
	wantFamilies := []string{
		"pad_requests_total", "pad_jobs_mined_total", "pad_jobs_cancelled_total",
		"pad_jobs_failed_total", "pad_instructions_saved_total",
		"pad_queue_depth", "pad_queue_capacity", "pad_jobs",
		"pad_cache_entries", "pad_cache_hits_total", "pad_cache_misses_total",
		"pad_cache_dedups_total", "pad_cache_evictions_total",
		"pad_mine_duration_seconds", "pad_queue_wait_seconds",
	}
	if strings.Join(families, " ") != strings.Join(wantFamilies, " ") {
		t.Errorf("metric families %v, want %v", families, wantFamilies)
	}
}
