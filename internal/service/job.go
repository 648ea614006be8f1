package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Job states, in lifecycle order.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// errQueueFull is returned when the bounded job queue rejects a
// submission; handlers translate it into 429 with Retry-After.
var errQueueFull = errors.New("service: job queue full")

// job is one unit of compaction work flowing through the bounded queue.
// Sync submissions wait on done; async submissions are registered in the
// server's job store and polled by id.
type job struct {
	id  string
	key string
	req *CompactRequest
	// ctx governs the job's mining: the request context for sync jobs
	// (client disconnect cancels the mine), the server's base context for
	// async jobs (shutdown cancels).
	ctx  context.Context
	done chan struct{}

	mu       sync.Mutex
	state    string
	val      *result
	status   cacheStatus
	err      error
	enqueued time.Time
}

func (j *job) setState(s string) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
}

func (j *job) snapshot() (state string, val *result, status cacheStatus, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.val, j.status, j.err
}

func (j *job) finish(val *result, status cacheStatus, err error) {
	j.mu.Lock()
	j.val, j.status, j.err = val, status, err
	if err != nil {
		j.state = JobFailed
	} else {
		j.state = JobDone
	}
	j.mu.Unlock()
	close(j.done)
}

// newJob allocates and registers a job. Async jobs stay queryable via
// GET /v1/jobs/{id} until pruned; sync jobs are registered too so
// /v1/report/{id} works with either id form.
func (s *Server) newJob(req *CompactRequest, key string, ctx context.Context) *job {
	s.mu.Lock()
	s.nextJob++
	j := &job{
		id:       fmt.Sprintf("j%06d", s.nextJob),
		key:      key,
		req:      req,
		ctx:      ctx,
		done:     make(chan struct{}),
		state:    JobQueued,
		enqueued: time.Now(),
	}
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	s.pruneJobsLocked()
	s.mu.Unlock()
	return j
}

// maxRetainedJobs bounds the job store: beyond it, the oldest finished
// jobs are forgotten (queued and running jobs are never pruned).
const maxRetainedJobs = 1024

func (s *Server) pruneJobsLocked() {
	if len(s.jobOrder) <= maxRetainedJobs {
		return
	}
	kept := s.jobOrder[:0]
	excess := len(s.jobOrder) - maxRetainedJobs
	for _, id := range s.jobOrder {
		j := s.jobs[id]
		if excess > 0 && j != nil {
			if st, _, _, _ := j.snapshot(); st == JobDone || st == JobFailed {
				delete(s.jobs, id)
				excess--
				continue
			}
		}
		kept = append(kept, id)
	}
	s.jobOrder = kept
}

// enqueue offers the job to the bounded queue without blocking; a full
// queue (or a server past Shutdown) is the caller's 429/503.
func (s *Server) enqueue(j *job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("service: shutting down")
	}
	select {
	case s.queue <- j:
		return nil
	default:
		return errQueueFull
	}
}

// worker drains the queue until Shutdown closes it, running one job at a
// time. JobWorkers of these share the queue.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

func (s *Server) runJob(j *job) {
	if err := j.ctx.Err(); err != nil {
		// Client disconnected (or server cancelled) while the job sat in
		// the queue: never start the mine.
		s.stats.observeCancel()
		j.finish(nil, statusMiss, err)
		return
	}
	j.setState(JobRunning)
	wait := time.Since(j.enqueued)
	var mineDur time.Duration
	val, status, err := s.cache.do(j.ctx, j.key, func() (*result, error) {
		start := time.Now()
		v, err := s.mine(j.ctx, j.req, j.key)
		mineDur = time.Since(start)
		return v, err
	})
	switch {
	case err == nil:
		if status == statusMiss {
			s.stats.observeMine(val.miner, val.saved, wait, mineDur)
		}
		s.log.Info("job done", "job", j.id, "key", j.key, "cache", string(status),
			"miner", val.miner, "saved", val.saved, "wait", wait)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.stats.observeCancel()
		s.log.Info("job cancelled", "job", j.id, "key", j.key)
	default:
		s.stats.observeFail()
		s.log.Info("job failed", "job", j.id, "key", j.key, "err", err.Error())
	}
	j.finish(val, status, err)
}
