package service

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
)

// GET /metrics renders the service counters in the Prometheus text
// exposition format (version 0.0.4) with no client library: every metric
// is a plain counter, gauge, or fixed-bucket histogram, so the format is
// a few Fprintf calls. Output order is deterministic — metrics in a fixed
// sequence, label values sorted — so scrapes diff cleanly.

// metricsBuckets are the per-miner histogram bounds in seconds,
// mirroring latencyBuckets exactly; Prometheus convention adds +Inf.
var metricsBuckets = []string{"0.001", "0.01", "0.1", "1", "10"}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder

	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	snap := s.stats.snapshot()
	counter("pad_requests_total", "HTTP requests received.", snap.Totals.Requests)
	counter("pad_jobs_mined_total", "Jobs that ran a fresh mine (cache misses).", snap.Totals.Mined)
	counter("pad_jobs_cancelled_total", "Jobs cancelled before or during mining.", snap.Totals.Cancelled)
	counter("pad_jobs_failed_total", "Jobs that failed.", snap.Totals.Failed)
	counter("pad_instructions_saved_total", "Instructions removed across all mined jobs.", snap.Totals.InstructionsSaved)

	gauge("pad_queue_depth", "Jobs accepted but not yet started.", int64(len(s.queue)))
	gauge("pad_queue_capacity", "Bound of the job queue.", int64(cap(s.queue)))

	states := map[string]int{JobQueued: 0, JobRunning: 0, JobDone: 0, JobFailed: 0}
	s.mu.Lock()
	for _, j := range s.jobs {
		st, _, _, _ := j.snapshot()
		states[st]++
	}
	s.mu.Unlock()
	fmt.Fprintf(&b, "# HELP pad_jobs Jobs in the retained store by state.\n# TYPE pad_jobs gauge\n")
	names := make([]string, 0, len(states))
	for st := range states {
		names = append(names, st)
	}
	sort.Strings(names)
	for _, st := range names {
		fmt.Fprintf(&b, "pad_jobs{state=%q} %d\n", st, states[st])
	}

	cc := s.cache.counters()
	gauge("pad_cache_entries", "Completed results held by the cache.", int64(cc.Entries))
	counter("pad_cache_hits_total", "Cache lookups served from a completed entry.", cc.Hits)
	counter("pad_cache_misses_total", "Cache lookups that ran a mine.", cc.Misses)
	counter("pad_cache_dedups_total", "Submissions that joined an in-flight mine.", cc.Dedups)
	counter("pad_cache_evictions_total", "Entries dropped by the LRU bound.", cc.Evictions)

	// Per-miner histograms of fresh (uncached) jobs over the fixed bucket
	// bounds: mining latency, then the queue wait before it. Bucket
	// counts are cumulative per the exposition format.
	miners := make([]string, 0, len(snap.Miners))
	for name := range snap.Miners {
		miners = append(miners, name)
	}
	sort.Strings(miners)
	writeHist := func(name, help string, get func(*minerStats) *histogram) {
		fmt.Fprintf(&b, "# HELP %s %s\n", name, help)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", name)
		for _, miner := range miners {
			h := get(snap.Miners[miner])
			var cum int64
			for i, le := range metricsBuckets {
				cum += h.counts[i]
				fmt.Fprintf(&b, "%s_bucket{miner=%q,le=%q} %d\n", name, miner, le, cum)
			}
			cum += h.counts[len(metricsBuckets)]
			fmt.Fprintf(&b, "%s_bucket{miner=%q,le=\"+Inf\"} %d\n", name, miner, cum)
			fmt.Fprintf(&b, "%s_sum{miner=%q} %g\n", name, miner, h.sum.Seconds())
			fmt.Fprintf(&b, "%s_count{miner=%q} %d\n", name, miner, cum)
		}
	}
	writeHist("pad_mine_duration_seconds", "Mining latency of fresh (uncached) jobs.",
		func(ms *minerStats) *histogram { return &ms.mine })
	writeHist("pad_queue_wait_seconds", "Queue wait of fresh (uncached) jobs, from enqueue until a worker took the job.",
		func(ms *minerStats) *histogram { return &ms.wait })

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = fmt.Fprint(w, b.String())
}
