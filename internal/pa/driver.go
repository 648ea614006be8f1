package pa

import (
	"context"
	"fmt"
	"time"

	"graphpa/internal/arm"
	"graphpa/internal/cfg"
	"graphpa/internal/loader"
)

// Options tunes the optimizer.
type Options struct {
	// MinSupport is the frequency threshold (default 2).
	MinSupport int
	// MaxNodes caps mined fragment size (default 8, at most
	// MaxNodesLimit; larger finds more but mines longer).
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
	// Workers is ignored: every run is one serial pipeline, and the
	// parallelism that pays is across runs (the compaction service's
	// concurrent jobs, the benchmark harness's program×miner cells). It
	// stays only because perfbench still sets it, and goes when that
	// benchmark definition next changes.
	Workers int

	// ref selects a reference arm the differential tests compare the
	// default pipeline against. Only tests set it (export_test.go).
	ref reference
	// ctx carries the cancellation context of an OptimizeContext run.
	// Only the driver sets it; miners read it through Context.
	ctx context.Context
	// inc hands the cross-round per-block cache to the miner, which
	// keeps its mining graphs there. Only the driver sets it.
	inc *incState
	// stat, when non-nil, receives per-round miner counters (Visits,
	// NonMinimal, Unextractable, Ties, Truncated) and the sequence
	// scan's Scan and SeqBuilds.
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

// reference is the test-only selection of reference arms. Each leaves
// the Result byte-identical to the default pipeline's; only the walk's
// visit counts and the cross-round cache counters move.
type reference struct {
	// lexicographic reverts the graph miners' lattice walk to pure
	// DFS-code sibling order with the legacy fragUB subtree bound and no
	// MIS-aware child pruning. It changes how many lattice nodes the walk
	// visits (RoundStat.Visits); the benefit-directed walk's saving
	// against it is what the A/B tests pin.
	lexicographic bool
	// rebuild discards all cross-round state: every round reassembles
	// the program, builds its view afresh with cfg.Build and starts a new
	// incState, so dependence graphs and mining graphs are all built
	// from scratch.
	rebuild bool
	// batch, when positive, replaces defaultBatch, so the tie-set oracle
	// (TestTieRankingMatchesUnboundedTies) and the candidate-key test can
	// see every tie. Unlike the arms above it
	// can change which runners-up the driver applies.
	batch int
}

// defaultBatch is the number of runner-up candidates kept per round
// (ignored with SingleExtract).
const defaultBatch = 16

func (o Options) batch() int {
	if o.SingleExtract {
		return 1
	}
	if o.ref.batch > 0 {
		return o.ref.batch
	}
	return defaultBatch
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

// MaxNodesLimit is the largest MaxNodes Validate accepts. Each lattice
// visit's embedding and validation work grows with the pattern size, so
// the cap keeps one request from buying a search no workload needs: the
// largest fragment size any benchmark or test uses is 12.
const MaxNodesLimit = 64

// Validate rejects options no run can honour: every count and bound is
// non-negative, 0 selects its default, and MaxNodes is at most
// MaxNodesLimit. OptimizeContext checks it first; the CLIs and the
// compaction service call ValidateAs themselves to refuse bad input
// before doing any work.
func (o Options) Validate() error {
	if err := o.ValidateAs(nil); err != nil {
		return fmt.Errorf("pa: %w", err)
	}
	return nil
}

// ValidateAs is Validate with each rejected option called by the name
// names maps its Options field name to — a command's flag, a request's
// JSON field — so callers report errors in their users' terms. A field
// names does not map keeps its own name.
func (o Options) ValidateAs(names map[string]string) error {
	name := func(field string) string {
		if n, ok := names[field]; ok {
			return n
		}
		return field
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"MinSupport", o.MinSupport},
		{"MaxNodes", o.MaxNodes},
		{"MaxSeqLen", o.MaxSeqLen},
		{"MaxRounds", o.MaxRounds},
		{"MaxPatterns", o.MaxPatterns},
	} {
		if f.v < 0 {
			return fmt.Errorf("option %s must be non-negative, got %d", name(f.name), f.v)
		}
	}
	if o.MaxNodes > MaxNodesLimit {
		return fmt.Errorf("option %s must be at most %d, got %d", name("MaxNodes"), MaxNodesLimit, o.MaxNodes)
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
	Mine      time.Duration // candidate mining, Scan included
	Scan      time.Duration // the sequence scan (ScanSequences)
	Apply     time.Duration // extraction rewrites

	Blocks        int // blocks analysed this round
	BlocksReused  int // dependence graphs reused from the block's entry
	BlocksRebuilt int // built from scratch
	// BlocksRebound is always 0: it counted graphs reused by content
	// under a fresh block object, and that path is gone (DESIGN.md §8).
	// It stays only because perfbench still reads it for its
	// dfg.blocks_reused layer, and goes when that layer does.
	BlocksRebound int
	// RebuiltClean counts rebuilds of blocks in untouched functions with
	// no summary drift — over-invalidation; stays 0 when the dirty-set
	// rules are exact.
	RebuiltClean int

	// SummariesChanged counts the functions whose call summary differs
	// from the previous round's (every function in round 1).
	SummariesChanged int

	// MemoHits and VisitsSaved are always 0: they counted the lattice
	// checkpointer's fast-forwarded subtrees and their visits, and the
	// checkpointer is gone (DESIGN.md §8). They stay only because
	// perfbench still reads them for its pa.memo_hits and pa.ff_visits
	// layers, and go when those layers do.
	MemoHits    int
	VisitsSaved int

	// Visits counts frequent lattice nodes the miner visited this round.
	// It differs between the benefit-directed and lexicographic walks —
	// that difference is the search-order win the benchmarks track.
	Visits int

	// NonMinimal counts the children the minimal-DFS-code test rejected
	// this round: lattice nodes reached again through a non-canonical
	// code. The test runs on every extension group that passes the
	// raw-count viability filter, before its embeddings are built, so
	// the count includes children the bounds or the visit budget would
	// have cut.
	NonMinimal int

	// Unextractable counts the roots and children the walk skipped
	// because every embedding row was closed: no occurrence in their
	// subtrees can be extracted (hull.go). Like NonMinimal it is taken
	// before the bounds, and it is 0 in the lexicographic reference walk,
	// which does not prune.
	Unextractable int

	// Ties counts the mined candidates at the walk's final incumbent
	// benefit: the tie set mergeCandidates ranks, dedups and cuts to the
	// batch. Sequence seeds are not counted. Deterministic.
	Ties int

	// SeqBuilds counts the candidates the sequence scan built and
	// validated this round (seqCandidate calls): the repeat groups that
	// could still reach its top 64 (DESIGN.md §15). Deterministic.
	SeqBuilds int

	// Truncated reports that the walk reached the pattern budget
	// (MaxPatterns) and stopped there.
	Truncated bool

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
// cancelled. Cancellation is observed between rounds and by the graph
// miners at every lattice subtree, so even a single long mining round
// aborts promptly. Options Validate rejects return its error before any
// work is done.
//
// Rounds after the first run incrementally: the program view is kept
// alive across rounds, only functions the previous extraction rewrote
// are re-split, dependence graphs are reused wherever block content and
// consumed call summaries are unchanged, and so are mining graphs. Call
// summaries are solved from scratch every round. All reuse is
// equivalence-gated, so the result is byte-identical to rebuilding
// everything every round (the rebuild reference arm the differential
// tests run).
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
	var view *cfg.Program
	var st *incState
	var dirty map[*cfg.Func]bool       // functions rewritten by the last round
	var prevRaw map[string]arm.Effects // last round's undecorated summaries
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if opts.MaxRounds > 0 && res.Rounds >= opts.MaxRounds {
			break
		}
		stat := RoundStat{Round: len(res.RoundStats) + 1}

		t0 := time.Now()
		if view != nil && opts.ref.rebuild {
			cur = cfg.Reassemble(view)
			view = nil
		}
		if view == nil {
			view = cfg.Build(cur)
			st = newIncState()
		} else {
			view.Resplit(dirty)
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
		graphs := st.buildGraphs(view, summaries, dirty, &stat)
		opts.inc = st
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
		res.Rounds++
	}
	if res.Rounds > 0 {
		// Resplit preserves flattened content exactly, so one final
		// reassembly of the long-lived view equals a reassemble/rebuild
		// chain run every round.
		cur = cfg.Reassemble(view)
	}
	res.Program = cur
	res.After = cur.CountInstrs()
	res.Duration = time.Since(start)
	return res, nil
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
