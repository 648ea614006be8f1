package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// This file is the corpus endpoint: POST /v1/batch accepts many programs
// under one shared compile/optimize configuration and fans them out over
// the existing job queue, so a batch shares the worker pool and the
// result cache with everything else. The
// submission is acknowledged immediately with a batch id; GET
// /v1/batch/{id} aggregates the per-program job states. Each program is
// an ordinary job underneath — individually pollable by job id, cached by
// content address, deduplicated in flight. Every program mines from
// scratch, as the paper does: batching shares the pool and the cache,
// not mined patterns (DESIGN.md §11).

// BatchProgram is one program of a corpus submission.
type BatchProgram struct {
	// Name labels the program in the batch status (e.g. its file name).
	Name string `json:"name"`
	// Source is mini-C, or assembly when Asm is set.
	Source string `json:"source"`
	Asm    bool   `json:"asm,omitempty"`
}

// BatchRequest is the body of POST /v1/batch. Compile and Optimize apply
// to every program, exactly as in CompactRequest.
type BatchRequest struct {
	Programs []BatchProgram  `json:"programs"`
	Compile  *CompileOptions `json:"compile,omitempty"`
	Optimize OptimizeOptions `json:"optimize"`
}

// maxBatchPrograms bounds one submission; a corpus larger than this is
// split by the client.
const maxBatchPrograms = 256

// compactRequest lowers one batch program to the single-program request
// the rest of the pipeline understands.
func (r *BatchRequest) compactRequest(i int) *CompactRequest {
	p := &r.Programs[i]
	return &CompactRequest{Source: p.Source, Asm: p.Asm, Compile: r.Compile, Optimize: r.Optimize}
}

func (r *BatchRequest) validate() error {
	if len(r.Programs) == 0 {
		return fmt.Errorf("empty batch")
	}
	if len(r.Programs) > maxBatchPrograms {
		return fmt.Errorf("batch of %d programs exceeds the limit of %d", len(r.Programs), maxBatchPrograms)
	}
	seen := map[string]bool{}
	for i := range r.Programs {
		p := &r.Programs[i]
		if p.Name == "" {
			return fmt.Errorf("program %d has no name", i)
		}
		if seen[p.Name] {
			return fmt.Errorf("duplicate program name %q", p.Name)
		}
		seen[p.Name] = true
		if err := r.compactRequest(i).validate(); err != nil {
			return fmt.Errorf("program %q: %w", p.Name, err)
		}
	}
	return nil
}

// batchItem pairs a program name with its underlying job.
type batchItem struct {
	name string
	job  *job
}

// batch is one registered corpus submission.
type batch struct {
	id    string
	items []batchItem
}

// maxRetainedBatches bounds the batch store; beyond it the oldest
// finished batches are forgotten (their jobs live on in the job store).
const maxRetainedBatches = 64

func (b *batch) finished() bool {
	for i := range b.items {
		st, _, _, _ := b.items[i].job.snapshot()
		if st != JobDone && st != JobFailed {
			return false
		}
	}
	return true
}

func (s *Server) pruneBatchesLocked() {
	if len(s.batchOrder) <= maxRetainedBatches {
		return
	}
	kept := s.batchOrder[:0]
	excess := len(s.batchOrder) - maxRetainedBatches
	for _, id := range s.batchOrder {
		b := s.batches[id]
		if excess > 0 && b != nil && b.finished() {
			delete(s.batches, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.batchOrder = kept
}

// handleSubmitBatch acknowledges with a batch id and feeds the programs
// to the job queue from a goroutine: the bounded queue applies
// backpressure to the feeder, not to the submitting client.
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
		return
	}
	if err := req.validate(); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
		return
	}
	items := make([]batchItem, len(req.Programs))
	for i := range req.Programs {
		cr := req.compactRequest(i)
		// Batch jobs run under the server context, like async jobs: only
		// shutdown cancels them.
		items[i] = batchItem{name: req.Programs[i].Name, job: s.newJob(cr, cr.Key(), s.baseCtx)}
	}
	// Register the batch and its feeder in one critical section with the
	// closed check: Shutdown flips closed under the same lock before it
	// closes the queue, so a feeder admitted here is always covered by
	// Shutdown's WaitGroup wait.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		for i := range items {
			items[i].job.finish(nil, statusMiss, errors.New("service: shutting down"))
		}
		writeJSON(w, http.StatusServiceUnavailable, errorBody{"service: shutting down"})
		return
	}
	s.nextBatch++
	b := &batch{id: fmt.Sprintf("b%04d", s.nextBatch), items: items}
	s.batches[b.id] = b
	s.batchOrder = append(s.batchOrder, b.id)
	s.pruneBatchesLocked()
	s.wg.Add(1)
	s.mu.Unlock()
	go s.feedBatch(b)
	s.log.Info("batch accepted", "batch", b.id, "programs", len(items))
	writeJSON(w, http.StatusAccepted, map[string]any{"id": b.id, "programs": len(items)})
}

// feedBatch pushes a batch's jobs into the bounded queue, blocking on a
// full queue by retrying. It runs under the server's WaitGroup, so
// Shutdown waits for it; enqueue refuses once intake closes, which
// fails the remaining jobs instead of deadlocking the drain.
func (s *Server) feedBatch(b *batch) {
	defer s.wg.Done()
	for i := range b.items {
		j := b.items[i].job
		if v, ok := s.cache.get(j.key); ok {
			j.finish(v, statusHit, nil)
			continue
		}
		for {
			err := s.enqueue(j)
			if err == nil {
				break
			}
			if errors.Is(err, errQueueFull) {
				select {
				case <-time.After(5 * time.Millisecond):
					continue
				case <-s.baseCtx.Done():
					err = s.baseCtx.Err()
				}
			}
			j.finish(nil, statusMiss, err)
			break
		}
	}
}

// BatchProgramStatus is one program's row in the batch status body.
type BatchProgramStatus struct {
	Name      string `json:"name"`
	JobID     string `json:"job_id"`
	ContentID string `json:"content_id"`
	State     string `json:"state"`
	Cache     string `json:"cache,omitempty"`
	Error     string `json:"error,omitempty"`
	Before    int    `json:"before,omitempty"`
	After     int    `json:"after,omitempty"`
	Saved     int    `json:"saved,omitempty"`
	ImageHash string `json:"image_hash,omitempty"`
}

// BatchStatusBody is the GET /v1/batch/{id} response.
type BatchStatusBody struct {
	ID       string               `json:"id"`
	State    string               `json:"state"` // "running" until every program settles, then "done"
	Programs []BatchProgramStatus `json:"programs"`
	Totals   struct {
		Programs int `json:"programs"`
		Done     int `json:"done"`
		Failed   int `json:"failed"`
		Saved    int `json:"saved"`
	} `json:"totals"`
}

func (s *Server) handleBatchStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	b := s.batches[r.PathValue("id")]
	s.mu.Unlock()
	if b == nil {
		writeJSON(w, http.StatusNotFound, errorBody{"unknown batch id"})
		return
	}
	body := BatchStatusBody{ID: b.id, State: "done"}
	body.Totals.Programs = len(b.items)
	for i := range b.items {
		it := &b.items[i]
		st, val, status, err := it.job.snapshot()
		ps := BatchProgramStatus{Name: it.name, JobID: it.job.id, ContentID: it.job.key, State: st}
		switch st {
		case JobDone:
			body.Totals.Done++
			ps.Cache = string(status)
			if val != nil {
				ps.Before, ps.After, ps.Saved = val.before, val.after, val.saved
				ps.ImageHash = val.imageHash
				body.Totals.Saved += val.saved
			}
		case JobFailed:
			body.Totals.Failed++
			if err != nil {
				ps.Error = err.Error()
			}
		default:
			body.State = "running"
		}
		body.Programs = append(body.Programs, ps)
	}
	writeJSON(w, http.StatusOK, body)
}
