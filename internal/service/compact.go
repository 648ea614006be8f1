package service

import (
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"graphpa/internal/codegen"
	"graphpa/internal/core"
	"graphpa/internal/link"
	"graphpa/internal/pa"
)

// CompileOptions selects the mini-C compiler configuration of a request.
type CompileOptions struct {
	// Optimize enables the -Os-style IR optimizer.
	Optimize bool `json:"optimize"`
	// Schedule enables the list scheduler.
	Schedule bool `json:"schedule"`
}

// MaxFragmentLimit is the largest max_fragment a request may ask for.
// The miner allocates a bound table of (max_fragment−1)·2048 ints per
// round, so an unchecked value is a memory bomb; the largest fragment
// size any benchmark or test uses is 12.
const MaxFragmentLimit = 64

// OptimizeOptions selects and tunes the procedural-abstraction run of a
// request. The zero value of each field means its library default.
type OptimizeOptions struct {
	Miner       string `json:"miner,omitempty"` // sfx | dgspan | edgar | edgar-canon (default edgar)
	MinSupport  int    `json:"min_support,omitempty"`
	MaxFragment int    `json:"max_fragment,omitempty"`
	MaxRounds   int    `json:"max_rounds,omitempty"`
	MaxPatterns int    `json:"max_patterns,omitempty"`
	GreedyMIS   bool   `json:"greedy_mis,omitempty"`
}

// CompactRequest is the body of POST /v1/compact and POST /v1/jobs.
type CompactRequest struct {
	// Source is mini-C source, or assembly when Asm is set (assembly must
	// define _start; no runtime library is linked).
	Source string `json:"source"`
	Asm    bool   `json:"asm,omitempty"`
	// Compile is ignored for assembly. nil selects the benchmark-suite
	// configuration: IR optimizer and list scheduler both on.
	Compile  *CompileOptions `json:"compile,omitempty"`
	Optimize OptimizeOptions `json:"optimize"`
}

// Extraction is one applied rewrite in a response.
type Extraction struct {
	Name        string `json:"name"`
	Method      string `json:"method"` // "call" or "crossjump"
	Size        int    `json:"size"`
	Occurrences int    `json:"occurrences"`
	Benefit     int    `json:"benefit"`
}

// CompactResponse is the body of a successful compaction. It carries no
// wall-clock fields on purpose: a cached response must be byte-identical
// to a fresh run (timings live on /stats instead).
type CompactResponse struct {
	// ID is the request's content address — the cache key.
	ID          string       `json:"id"`
	Miner       string       `json:"miner"`
	Before      int          `json:"before"`
	After       int          `json:"after"`
	Saved       int          `json:"saved"`
	Rounds      int          `json:"rounds"`
	Extractions []Extraction `json:"extractions"`
	// Image is the optimized binary in the stable internal/link encoding,
	// base64; ImageHash is its content address (hex SHA-256 of the
	// encoding).
	Image     string `json:"image"`
	ImageHash string `json:"image_hash"`
	// Summary is the paper-style savings report, the same lines cmd/edgar
	// prints minus the wall-clock suffix.
	Summary string `json:"summary"`
}

func (r *CompactRequest) compileOptions() codegen.Options {
	if r.Compile == nil {
		return codegen.Options{Optimize: true, Schedule: true}
	}
	return codegen.Options{Optimize: r.Compile.Optimize, Schedule: r.Compile.Schedule}
}

func (r *CompactRequest) minerName() string {
	if r.Optimize.Miner == "" {
		return "edgar"
	}
	return r.Optimize.Miner
}

// paOptions maps the request onto the optimizer's options. Every job
// mines serially: the server runs Config.JobWorkers jobs side by side
// instead.
func (r *CompactRequest) paOptions() pa.Options {
	return pa.Options{
		MinSupport:  r.Optimize.MinSupport,
		MaxNodes:    r.Optimize.MaxFragment,
		MaxRounds:   r.Optimize.MaxRounds,
		MaxPatterns: r.Optimize.MaxPatterns,
		GreedyMIS:   r.Optimize.GreedyMIS,
		Workers:     1,
	}
}

// validate rejects requests whose errors are knowable without compiling,
// so they never cost a queue slot.
func (r *CompactRequest) validate() error {
	if strings.TrimSpace(r.Source) == "" {
		return fmt.Errorf("empty source")
	}
	if _, err := core.MinerByName(r.minerName()); err != nil {
		return err
	}
	if err := r.paOptions().Validate(); err != nil {
		return err
	}
	if r.Optimize.MaxFragment > MaxFragmentLimit {
		return fmt.Errorf("max_fragment %d exceeds the limit of %d", r.Optimize.MaxFragment, MaxFragmentLimit)
	}
	return nil
}

// Key returns the request's content address: the hex SHA-256 of the
// input bytes and every option that can change the output. Zero-valued
// options are resolved to their library defaults first, so spelling a
// default out loud shares the cache line with leaving it blank. The
// mining worker width is deliberately excluded — the parallel search is
// deterministic, so every width produces the same bytes.
func (r *CompactRequest) Key() string {
	h := sha256.New()
	kind := "minic"
	co := r.compileOptions()
	if r.Asm {
		kind = "asm"
		co = codegen.Options{}
	}
	minSup := r.Optimize.MinSupport
	if minSup == 0 {
		minSup = 2
	}
	maxFrag := r.Optimize.MaxFragment
	if maxFrag == 0 {
		maxFrag = 8
	}
	maxPat := r.Optimize.MaxPatterns
	if maxPat == 0 {
		maxPat = 100_000
	}
	fmt.Fprintf(h, "graphpa-compact-v1\x00%s\x00%d\x00", kind, len(r.Source))
	h.Write([]byte(r.Source))
	fmt.Fprintf(h, "\x00compile:%t,%t\x00opt:%s,%d,%d,%d,%d,%t",
		co.Optimize, co.Schedule,
		r.minerName(), minSup, maxFrag, r.Optimize.MaxRounds, maxPat, r.Optimize.GreedyMIS)
	return hex.EncodeToString(h.Sum(nil))
}

// requestError marks a failure caused by the request itself (malformed
// source, unknown miner): HTTP 400 with the diagnostic.
type requestError struct{ err error }

func (e *requestError) Error() string { return e.err.Error() }
func (e *requestError) Unwrap() error { return e.err }

// RenderReport renders the paper-style savings summary of one run — the
// same lines cmd/edgar prints, minus the wall-clock suffix, so the text
// is deterministic and a cached report is byte-identical to a fresh one.
func RenderReport(miner string, before, after, rounds int, extractions []Extraction) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d -> %d instructions (saved %d) in %d rounds\n",
		miner, before, after, before-after, rounds)
	for _, e := range extractions {
		fmt.Fprintf(&b, "  %-8s %-10s size=%d occs=%d benefit=%d\n",
			e.Name, e.Method, e.Size, e.Occurrences, e.Benefit)
	}
	return b.String()
}

// buildResult converts one optimization run into the canonical cacheable
// result. Both the live service path and the end-to-end tests build
// expected responses through this one function, so "byte-identical to a
// direct run" is checked against the real encoder.
func buildResult(key string, res *pa.Result, img *link.Image) (*result, error) {
	resp := &CompactResponse{
		ID:          key,
		Miner:       res.Miner,
		Before:      res.Before,
		After:       res.After,
		Saved:       res.Saved(),
		Rounds:      res.Rounds,
		Extractions: []Extraction{},
	}
	for _, e := range res.Extractions {
		resp.Extractions = append(resp.Extractions, Extraction{
			Name:        e.Name,
			Method:      e.Method.String(),
			Size:        e.Size,
			Occurrences: e.Occs,
			Benefit:     e.Benefit,
		})
	}
	enc := img.Encode()
	resp.Image = base64.StdEncoding.EncodeToString(enc)
	resp.ImageHash = img.Hash()
	resp.Summary = RenderReport(resp.Miner, resp.Before, resp.After, resp.Rounds, resp.Extractions)
	body, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return &result{
		body: body, report: resp.Summary, miner: resp.Miner,
		before: resp.Before, after: resp.After, saved: resp.Saved,
		imageHash: resp.ImageHash,
	}, nil
}

// mine runs the full pipeline for one request: compile or assemble,
// optimize under ctx, and render the canonical result.
func (s *Server) mine(ctx context.Context, req *CompactRequest, key string) (*result, error) {
	if s.hookMineStart != nil {
		s.hookMineStart(key)
	}
	var img *link.Image
	var err error
	if req.Asm {
		img, err = core.BuildAsm(req.Source)
	} else {
		img, err = core.Build(req.Source, req.compileOptions())
	}
	if err != nil {
		return nil, &requestError{err}
	}
	m, err := core.MinerByName(req.minerName())
	if err != nil {
		return nil, &requestError{err}
	}
	res, out, err := core.OptimizeContext(ctx, img, m, req.paOptions())
	if err != nil {
		return nil, err
	}
	return buildResult(key, res, out)
}
