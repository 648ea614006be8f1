package service

import (
	"sync"
	"time"
)

// latencyBuckets are the upper bounds of the per-miner latency
// histograms (mining and queue wait); a final unbounded bucket catches
// the rest.
var latencyBuckets = []time.Duration{
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
	10 * time.Second,
}

// bucketLabels mirror latencyBuckets in the /stats JSON.
var bucketLabels = []string{"le_1ms", "le_10ms", "le_100ms", "le_1s", "le_10s", "inf"}

// histogram counts durations into latencyBuckets and sums them.
type histogram struct {
	counts [6]int64 // len(latencyBuckets)+1, one per bucketLabels entry
	sum    time.Duration
}

func (h *histogram) observe(d time.Duration) {
	h.sum += d
	b := len(latencyBuckets)
	for i, ub := range latencyBuckets {
		if d <= ub {
			b = i
			break
		}
	}
	h.counts[b]++
}

// labelled renders the bucket counts keyed by bucketLabels.
func (h *histogram) labelled() map[string]int64 {
	out := make(map[string]int64, len(bucketLabels))
	for i, lbl := range bucketLabels {
		out[lbl] = h.counts[i]
	}
	return out
}

// minerStats aggregates per-miner accounting: how many jobs actually
// mined, total instructions saved, the mining-latency histogram and the
// histogram of those jobs' queue waits (enqueue to a worker taking the
// job; /metrics only).
type minerStats struct {
	Jobs    int64            `json:"jobs"`
	Saved   int64            `json:"instructions_saved"`
	Latency map[string]int64 `json:"latency"`

	mine histogram
	wait histogram
}

// stats is the service-wide accounting behind /stats and /metrics.
type stats struct {
	mu        sync.Mutex
	mined     int64
	cancelled int64
	failed    int64
	saved     int64
	requests  int64
	miners    map[string]*minerStats
}

func newStats() *stats {
	return &stats{miners: map[string]*minerStats{}}
}

func (s *stats) request() {
	s.mu.Lock()
	s.requests++
	s.mu.Unlock()
}

// observeMine records one completed mining execution that waited wait
// in the queue and mined for d (cache hits and dedup waiters do not
// mine and are not observed here).
func (s *stats) observeMine(miner string, saved int, wait, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mined++
	s.saved += int64(saved)
	ms := s.miners[miner]
	if ms == nil {
		ms = &minerStats{}
		s.miners[miner] = ms
	}
	ms.Jobs++
	ms.Saved += int64(saved)
	ms.mine.observe(d)
	ms.wait.observe(wait)
}

func (s *stats) observeCancel() {
	s.mu.Lock()
	s.cancelled++
	s.mu.Unlock()
}

func (s *stats) observeFail() {
	s.mu.Lock()
	s.failed++
	s.mu.Unlock()
}

// statsSnapshot is the /stats response body.
type statsSnapshot struct {
	Queue struct {
		Depth    int `json:"depth"`
		Capacity int `json:"capacity"`
	} `json:"queue"`
	Jobs   map[string]int         `json:"jobs"`
	Cache  cacheCounters          `json:"cache"`
	Miners map[string]*minerStats `json:"miners"`
	Totals struct {
		Requests          int64 `json:"requests"`
		Mined             int64 `json:"mined"`
		Cancelled         int64 `json:"cancelled"`
		Failed            int64 `json:"failed"`
		InstructionsSaved int64 `json:"instructions_saved"`
	} `json:"totals"`
}

func (s *stats) snapshot() statsSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	var snap statsSnapshot
	snap.Miners = map[string]*minerStats{}
	for name, ms := range s.miners {
		snap.Miners[name] = &minerStats{Jobs: ms.Jobs, Saved: ms.Saved,
			Latency: ms.mine.labelled(), mine: ms.mine, wait: ms.wait}
	}
	snap.Totals.Requests = s.requests
	snap.Totals.Mined = s.mined
	snap.Totals.Cancelled = s.cancelled
	snap.Totals.Failed = s.failed
	snap.Totals.InstructionsSaved = s.saved
	return snap
}
