// Package service is compaction-as-a-service: an HTTP daemon around the
// post-link-time optimizer. It accepts mini-C or assembly, compiles it,
// runs procedural abstraction with a per-request miner, and returns the
// optimized image plus the paper-style savings report as JSON.
//
// Three layers sit between the socket and the optimizer:
//
//   - a bounded job queue with per-job context cancellation and a fixed
//     worker count, so concurrent requests share the machine without
//     oversubscribing the mining pipeline (queue full = 429 Retry-After;
//     client disconnect = the mine is cancelled mid-lattice);
//   - a content-addressed LRU result cache keyed by SHA-256 of
//     (input bytes, compile options, optimize options), with singleflight
//     dedup so identical concurrent submissions mine exactly once — sound
//     because the optimizer is deterministic at any job concurrency, a
//     cached response is byte-identical to a fresh run;
//   - an observability surface: /healthz, /stats (queue depth, cache
//     ratios, per-miner latency histograms, total instructions saved),
//     structured request logging, and graceful shutdown that drains
//     in-flight jobs.
//
// Endpoints: POST /v1/compact (sync), POST /v1/jobs + GET /v1/jobs/{id}
// (async), POST /v1/batch + GET /v1/batch/{id} (corpus submission fanned
// out over the job queue), GET /v1/report/{id} (human-readable table, by
// job id or content address), GET /metrics (Prometheus text format).
// Every job mines its program from scratch; cmd/pad is the daemon and
// client binary.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"graphpa/internal/par"
)

// Config tunes a Server. The zero value is a sensible daemon: one job
// per core, a 64-deep queue and a 128-entry cache.
type Config struct {
	// JobWorkers is the number of jobs mined concurrently (default:
	// par.Workers(0), one per core). Every job is one serial optimizer
	// run: the parallelism that pays is across independent jobs.
	// Results are identical at any setting; only latency changes.
	JobWorkers int
	// QueueDepth bounds accepted-but-unstarted jobs (default 64). A full
	// queue answers 429 with Retry-After.
	QueueDepth int
	// CacheEntries bounds the content-addressed result cache
	// (default 128).
	CacheEntries int
	// Logger receives structured request and job logs (default:
	// discard).
	Logger *slog.Logger
}

func (c Config) jobWorkers() int { return par.Workers(c.JobWorkers) }

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 64
}

func (c Config) cacheEntries() int {
	if c.CacheEntries > 0 {
		return c.CacheEntries
	}
	return 128
}

// Server is the compaction service. Create with New, serve via Handler,
// stop with Shutdown.
type Server struct {
	cfg   Config
	log   *slog.Logger
	mux   *http.ServeMux
	queue chan *job
	cache *resultCache
	stats *stats

	mu         sync.Mutex
	jobs       map[string]*job
	jobOrder   []string
	nextJob    int
	batches    map[string]*batch
	batchOrder []string
	nextBatch  int
	closed     bool

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	// hookMineStart, when set (tests only), runs at the top of every
	// mining execution.
	hookMineStart func(key string)
}

// New builds a Server and starts its job workers.
func New(cfg Config) *Server {
	lg := cfg.Logger
	if lg == nil {
		lg = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		log:        lg,
		mux:        http.NewServeMux(),
		queue:      make(chan *job, cfg.queueDepth()),
		cache:      newResultCache(cfg.cacheEntries()),
		stats:      newStats(),
		jobs:       map[string]*job{},
		batches:    map[string]*batch{},
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/compact", s.handleCompact)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("POST /v1/batch", s.handleSubmitBatch)
	s.mux.HandleFunc("GET /v1/batch/{id}", s.handleBatchStatus)
	s.mux.HandleFunc("GET /v1/report/{id}", s.handleReport)
	for i := 0; i < cfg.jobWorkers(); i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// statusWriter captures the response code and size for request logging.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// Handler returns the service's HTTP handler with structured request
// logging wrapped around the routes.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.stats.request()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		s.mux.ServeHTTP(sw, r)
		s.log.Info("request",
			"method", r.Method, "path", r.URL.Path, "status", sw.code,
			"bytes", sw.bytes, "dur", time.Since(start), "remote", r.RemoteAddr)
	})
}

// Shutdown stops intake and drains: queued and running jobs finish
// first. If ctx expires before the drain completes, outstanding jobs are
// cancelled and Shutdown waits for the workers to observe it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	defer s.baseCancel()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return ctx.Err()
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) writeResult(w http.ResponseWriter, v *result, status cacheStatus) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", string(status))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(v.body)
}

// decodeRequest parses and statically validates a submission body.
func decodeRequest(r *http.Request) (*CompactRequest, error) {
	var req CompactRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	snap := s.stats.snapshot()
	snap.Queue.Depth = len(s.queue)
	snap.Queue.Capacity = cap(s.queue)
	snap.Cache = s.cache.counters()
	snap.Jobs = map[string]int{JobQueued: 0, JobRunning: 0, JobDone: 0, JobFailed: 0}
	s.mu.Lock()
	for _, j := range s.jobs {
		st, _, _, _ := j.snapshot()
		snap.Jobs[st]++
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, snap)
}

// handleCompact is the synchronous endpoint: the response is the full
// compaction result. The request context is the job context, so a
// disconnecting client cancels its mine (unless others are waiting on
// the same key — then one of them adopts the work).
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
		return
	}
	key := req.Key()
	if v, ok := s.cache.get(key); ok {
		s.writeResult(w, v, statusHit)
		return
	}
	j := s.newJob(req, key, r.Context())
	if err := s.enqueue(j); err != nil {
		j.finish(nil, statusMiss, err)
		if errors.Is(err, errQueueFull) {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, errorBody{err.Error()})
		} else {
			writeJSON(w, http.StatusServiceUnavailable, errorBody{err.Error()})
		}
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		// Client gone: the worker observes the same context and cancels
		// the mine; nothing useful can be written.
		return
	}
	_, val, status, err := j.snapshot()
	switch {
	case err == nil:
		s.writeResult(w, val, status)
	case isRequestError(err):
		writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{"compaction cancelled"})
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{err.Error()})
	}
}

func isRequestError(err error) bool {
	var re *requestError
	return errors.As(err, &re)
}

// jobStatusBody is the GET /v1/jobs/{id} response (and, minus Result,
// the POST /v1/jobs acknowledgement).
type jobStatusBody struct {
	ID        string          `json:"id"`
	State     string          `json:"state"`
	ContentID string          `json:"content_id"`
	Cache     string          `json:"cache,omitempty"`
	Error     string          `json:"error,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
}

// handleSubmitJob is the asynchronous endpoint: it acknowledges with a
// job id to poll. Async jobs run under the server's context — only
// shutdown cancels them.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
		return
	}
	key := req.Key()
	j := s.newJob(req, key, s.baseCtx)
	if v, ok := s.cache.get(key); ok {
		j.finish(v, statusHit, nil)
	} else if err := s.enqueue(j); err != nil {
		j.finish(nil, statusMiss, err)
		if errors.Is(err, errQueueFull) {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, errorBody{err.Error()})
		} else {
			writeJSON(w, http.StatusServiceUnavailable, errorBody{err.Error()})
		}
		return
	}
	state, _, _, _ := j.snapshot()
	writeJSON(w, http.StatusAccepted, jobStatusBody{ID: j.id, State: state, ContentID: key})
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorBody{"unknown job id"})
		return
	}
	state, val, status, err := j.snapshot()
	body := jobStatusBody{ID: j.id, State: state, ContentID: j.key}
	if err != nil {
		body.Error = err.Error()
	}
	if state == JobDone && val != nil {
		body.Cache = string(status)
		body.Result = json.RawMessage(val.body)
	}
	writeJSON(w, http.StatusOK, body)
}

// handleReport serves the human-readable savings table for a finished
// job id or a content address (the "id" field of any response).
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var v *result
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j != nil {
		if st, val, _, _ := j.snapshot(); st == JobDone {
			v = val
		}
	}
	if v == nil {
		v = s.cache.peek(id)
	}
	if v == nil {
		writeJSON(w, http.StatusNotFound, errorBody{"no report for this id"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, v.report)
}
