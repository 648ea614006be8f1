package pa

import (
	"context"
	"fmt"
	"time"

	"graphpa/internal/arm"
	"graphpa/internal/cfg"
	"graphpa/internal/dfg"
	"graphpa/internal/loader"
	"graphpa/internal/par"
)

// Options tunes the optimizer.
type Options struct {
	// MinSupport is the frequency threshold (default 2).
	MinSupport int
	// MaxNodes caps mined fragment size (default 8; larger finds more
	// but mines longer).
	MaxNodes int
	// MaxSeqLen caps SFX sequence length (default 32).
	MaxSeqLen int
	// GreedyMIS uses the greedy independent-set heuristic instead of the
	// exact solver (ablation knob).
	GreedyMIS bool
	// MaxRounds bounds mine/extract iterations (0 = to fixpoint).
	MaxRounds int
	// MaxPatterns bounds frequent patterns visited per mining round
	// (default 100000). The frequent-fragment lattice of heavily
	// duplicated regions is exponential — the paper ate multi-hour runs;
	// we truncate the search deterministically instead. Sequence seeding
	// and benefit-bound pruning put the profitable candidates early in
	// the visit order, so the cap rarely costs savings. Raise it (or set
	// it very high) to approximate the paper's exhaustive search.
	MaxPatterns int
	// SingleExtract reverts to the paper's strict one-fragment-per-round
	// loop. By default the driver applies, per round, the best candidate
	// plus every runner-up touching disjoint blocks — the same greedy
	// order at a fraction of the mining restarts.
	SingleExtract bool
	// Batch is the number of runner-up candidates kept per round
	// (default 16; ignored with SingleExtract).
	Batch int
	// Workers is the parallel width of the per-round fan-outs (sequence
	// scanning per fragment length, dependence-graph construction per
	// block): 0 derives the count from GOMAXPROCS, 1 forces the serial
	// pipeline, n > 1 uses n workers. The lattice walk itself is always
	// serial. Every setting produces identical results — the fan-outs
	// merge in input order — so only wall clock changes.
	Workers int
	// NoIncremental disables all cross-round reuse (dirty-set CFG
	// resplitting, dependence-graph and mining-graph caching, lattice
	// checkpointing) and reverts to the rebuild-everything loop. The
	// output is byte-identical either way — this is the kill switch and
	// the reference the differential tests compare against.
	NoIncremental bool
	// Lexicographic reverts the graph miners' lattice walk to pure
	// DFS-code sibling order with the legacy support-only subtree bound,
	// disabling the benefit-directed ordering and the MIS-aware child
	// pruning. The candidate output is byte-identical either way — this
	// is the kill switch and the reference arm the search-order
	// differential tests and A/B benchmarks compare against; it only
	// changes how many lattice nodes the walk visits (RoundStat.Visits).
	Lexicographic bool

	// ctx carries the cancellation context of an OptimizeContext run.
	// Only the driver sets it; miners read it through Context.
	ctx context.Context
	// inc hands the round's incremental caches to the miner. Only the
	// incremental driver sets it.
	inc *incMining
	// stat, when non-nil, receives per-round miner counters (Visits).
	stat *RoundStat
}

// Context returns the cancellation context of the run the options belong
// to (context.Background for plain Optimize). Miners consult it to
// abandon a search whose result will be discarded anyway.
func (o Options) Context() context.Context {
	if o.ctx == nil {
		return context.Background()
	}
	return o.ctx
}

func (o Options) workers() int { return par.Workers(o.Workers) }

// WorkersOrDefault returns the effective parallel width (resolving the
// Workers-0 default to the GOMAXPROCS-derived count).
func (o Options) WorkersOrDefault() int { return o.workers() }

func (o Options) batch() int {
	if o.SingleExtract {
		return 1
	}
	if o.Batch == 0 {
		return 16
	}
	return o.Batch
}

func (o Options) minSupport() int {
	if o.MinSupport == 0 {
		return 2
	}
	return o.MinSupport
}

func (o Options) maxNodes() int {
	if o.MaxNodes == 0 {
		return 8
	}
	return o.MaxNodes
}

// MaxSeqLenOrDefault returns the effective SFX sequence-length cap.
func (o Options) MaxSeqLenOrDefault() int {
	if o.MaxSeqLen == 0 {
		return 32
	}
	return o.MaxSeqLen
}

func (o Options) maxPatterns() int {
	if o.MaxPatterns == 0 {
		return 100_000
	}
	return o.MaxPatterns
}

// MaxPatternsOrDefault returns the effective per-round pattern budget
// (resolving the 0 default), so records of the configuration — e.g. the
// benchmark fingerprint — don't depend on whether the default was
// spelled out.
func (o Options) MaxPatternsOrDefault() int { return o.maxPatterns() }

// Validate rejects options no run can honour: every count and bound is
// non-negative, and 0 selects its default. OptimizeContext checks it
// first; the CLIs and the compaction service call it themselves to
// refuse bad input before doing any work.
func (o Options) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"MinSupport", o.MinSupport},
		{"MaxNodes", o.MaxNodes},
		{"MaxSeqLen", o.MaxSeqLen},
		{"MaxRounds", o.MaxRounds},
		{"MaxPatterns", o.MaxPatterns},
		{"Batch", o.Batch},
		{"Workers", o.Workers},
	} {
		if f.v < 0 {
			return fmt.Errorf("pa: option %s must be non-negative, got %d", f.name, f.v)
		}
	}
	return nil
}

// Extraction records one applied rewrite.
type Extraction struct {
	Name    string
	Method  Method
	Size    int // instructions per occurrence
	Occs    int
	Benefit int
}

// RoundStat is the per-round timing and cache-effectiveness breakdown of
// an optimization run. The final entry is the fixpoint probe — the round
// that mined and found nothing left to extract.
type RoundStat struct {
	Round int // 1-based

	CFGBuild  time.Duration // block (re)splitting and renumbering
	Summaries time.Duration // call-summary fixpoint
	DFGBuild  time.Duration // dependence-graph construction
	Mine      time.Duration // candidate mining
	Apply     time.Duration // extraction rewrites

	Blocks        int // blocks analysed this round
	BlocksReused  int // dependence graphs reused object-identically
	BlocksRebound int // reused by content under a fresh block object
	BlocksRebuilt int // built from scratch
	// RebuiltClean counts rebuilds of blocks in untouched functions with
	// no summary drift — over-invalidation; stays 0 when the dirty-set
	// rules are exact.
	RebuiltClean int

	// SummariesChanged counts the functions whose call summary differs
	// from the previous round's (every function in round 1).
	SummariesChanged int

	MemoHits    int // lattice subtrees fast-forwarded
	VisitsSaved int // pattern visits those subtrees would have cost

	// Visits counts frequent lattice nodes the miner actually visited this
	// round (fast-forwarded checkpoint subtrees are charged as if walked,
	// so the count is identical across worker widths and incremental
	// modes; it differs between the benefit-directed and Lexicographic
	// walks — that difference is the search-order win the benchmarks
	// track).
	Visits int

	// NonMinimal counts the children the minimal-DFS-code test rejected
	// this round: lattice nodes reached again through a non-canonical
	// code. The test runs on every extension group that passes the
	// raw-count viability filter, before its embeddings are built, so
	// the count includes children the bounds or the visit budget would
	// have cut. Fast-forwarded checkpoint subtrees charge their recorded
	// count, so like Visits it is identical across worker widths and
	// driver modes.
	NonMinimal int

	// CoarseVisits is always 0: it counted the coarse mine of the
	// multiresolution pass, which is gone (DESIGN.md §12). It stays only
	// because perfbench still reads it for its mining.coarse_visits
	// layer, and goes when that layer does.
	CoarseVisits int

	Extractions int // rewrites applied this round
}

// Result summarises an optimization run.
type Result struct {
	Miner       string
	Before      int // executable instructions before
	After       int
	Rounds      int
	Extractions []Extraction
	RoundStats  []RoundStat
	Program     *loader.Program
	Duration    time.Duration
}

// Saved returns Before - After.
func (r *Result) Saved() int { return r.Before - r.After }

// CrossJumps and Calls count extraction mechanisms (paper Fig. 12).
func (r *Result) CrossJumps() int {
	n := 0
	for _, e := range r.Extractions {
		if e.Method == MethodCrossJump {
			n++
		}
	}
	return n
}

// Calls counts call-style extractions.
func (r *Result) Calls() int { return len(r.Extractions) - r.CrossJumps() }

// Optimize runs the paper's phase-8 loop: mine the block dependence
// graphs, extract the fragment with the highest size benefit, and restart
// until no fragment shrinks the program (or MaxRounds is hit). The input
// program is not modified; the optimized program is in Result.Program.
// Optimize panics on options Validate rejects.
func Optimize(prog *loader.Program, m Miner, opts Options) *Result {
	res, err := OptimizeContext(context.Background(), prog, m, opts)
	if err != nil {
		// The background context never cancels, so the only error is an
		// option Validate rejects: a caller bug.
		panic(err)
	}
	return res
}

// OptimizeContext is Optimize under a cancellation context: the run is
// abandoned — returning ctx.Err(), never a partial Result — when ctx is
// cancelled. Cancellation is observed between rounds, inside the parallel
// dependence-graph build, and by the graph miners at every lattice
// subtree, so even a single long mining round aborts promptly. Options
// Validate rejects return its error before any work is done.
//
// By default rounds after the first run incrementally: the program view
// is kept alive across rounds, only functions the previous extraction
// rewrote are re-split, dependence graphs are reused wherever block
// content and consumed call summaries are unchanged, and the lattice
// search fast-forwards recorded subtrees over untouched blocks. Call
// summaries are solved from scratch every round in both modes. All reuse
// is equivalence-gated, so the result is byte-identical to
// Options.NoIncremental (which reverts to full rebuilds every round).
func OptimizeContext(ctx context.Context, prog *loader.Program, m Miner, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts.ctx = ctx
	start := time.Now()
	res := &Result{Miner: m.Name(), Before: prog.CountInstrs()}

	cur := prog
	used := usedNames(prog)
	counter := 0
	incremental := !opts.NoIncremental
	var view *cfg.Program
	var st *incState
	var dirty map[*cfg.Func]bool       // functions rewritten by the last round
	var prevRaw map[string]arm.Effects // last round's undecorated summaries
	anyApplied := false
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if opts.MaxRounds > 0 && res.Rounds >= opts.MaxRounds {
			break
		}
		stat := RoundStat{Round: len(res.RoundStats) + 1}

		t0 := time.Now()
		if incremental {
			if view == nil {
				view = cfg.Build(cur)
				st = newIncState()
			} else {
				view.Resplit(dirty)
			}
		} else {
			view = cfg.Build(cur)
		}
		stat.CFGBuild = time.Since(t0)
		stat.Blocks = len(view.Blocks)

		t0 = time.Now()
		raw := rawSummaries(view)
		stat.SummariesChanged = summariesChanged(prevRaw, raw)
		prevRaw = raw
		summaries := decorateSummaries(raw)
		stat.Summaries = time.Since(t0)

		t0 = time.Now()
		var graphs []*dfg.Graph
		if incremental {
			g, err := st.buildGraphs(ctx, view, summaries, dirty, opts, &stat)
			if err != nil {
				return nil, err
			}
			graphs = g
			st.beginMining(graphs, &stat)
			opts.inc = &st.m
		} else {
			g, err := buildGraphsFull(ctx, view, summaries, opts)
			if err != nil {
				return nil, err
			}
			graphs = g
			stat.BlocksRebuilt = len(graphs)
		}
		stat.DFGBuild = time.Since(t0)

		t0 = time.Now()
		opts.stat = &stat
		cands := m.FindCandidates(view, graphs, opts)
		stat.Mine = time.Since(t0)
		if err := ctx.Err(); err != nil {
			// A cancelled miner may have returned a truncated candidate
			// list; applying it would make cancellation observable in the
			// output.
			return nil, err
		}
		t0 = time.Now()
		applied := 0
		dirty = map[*cfg.Func]bool{}
		usedBlocks := map[*cfg.Block]bool{}
		for _, cand := range cands {
			if cand == nil || cand.Benefit <= 0 {
				continue
			}
			if opts.SingleExtract && applied >= 1 {
				break
			}
			conflict := false
			for _, occ := range cand.Occs {
				if usedBlocks[occ.Block] {
					conflict = true
					break
				}
			}
			if conflict {
				continue
			}
			for _, occ := range cand.Occs {
				usedBlocks[occ.Block] = true
			}
			var name string
			for {
				name = fmt.Sprintf("__pa%d", counter)
				counter++
				if !used[name] {
					break
				}
			}
			used[name] = true
			for fn := range Apply(view, cand, name) {
				dirty[fn] = true
			}
			applied++
			res.Extractions = append(res.Extractions, Extraction{
				Name:    name,
				Method:  cand.Method,
				Size:    cand.Size,
				Occs:    len(cand.Occs),
				Benefit: cand.Benefit,
			})
		}
		stat.Apply = time.Since(t0)
		stat.Extractions = applied
		res.RoundStats = append(res.RoundStats, stat)
		if applied == 0 {
			break
		}
		anyApplied = true
		res.Rounds++
		if !incremental {
			cur = cfg.Reassemble(view)
		}
	}
	if incremental && anyApplied {
		// Resplit preserves flattened content exactly, so one final
		// reassembly of the long-lived view equals the per-round
		// reassemble/rebuild chain of the non-incremental loop.
		cur = cfg.Reassemble(view)
	}
	res.Program = cur
	res.After = cur.CountInstrs()
	res.Duration = time.Since(start)
	return res, nil
}

// buildGraphsFull is the non-incremental per-round dependence-graph
// build: every block from scratch, in parallel when configured (indexed
// writes keep the result order-identical to the serial loop).
func buildGraphsFull(ctx context.Context, view *cfg.Program, summaries map[string]arm.Effects, opts Options) ([]*dfg.Graph, error) {
	graphs := make([]*dfg.Graph, len(view.Blocks))
	if w := opts.workers(); w > 1 {
		if err := par.Do(ctx, w, len(view.Blocks), func(_ context.Context, i int) error {
			graphs[i] = dfg.Build(view.Blocks[i], summaries)
			return nil
		}); err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			panic(err) // workers return no errors; panics re-raise in par.Do
		}
	} else {
		for i, b := range view.Blocks {
			graphs[i] = dfg.Build(b, summaries)
		}
	}
	return graphs, nil
}

func usedNames(prog *loader.Program) map[string]bool {
	used := map[string]bool{}
	for _, fn := range prog.Funcs {
		used[fn.Name] = true
		for i := range fn.Code {
			if t := fn.Code[i].Target; t != "" {
				used[t] = true
			}
		}
	}
	for _, d := range prog.Data {
		if d.Label != "" {
			used[d.Label] = true
		}
	}
	return used
}
