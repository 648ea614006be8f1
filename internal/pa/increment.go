package pa

import (
	"graphpa/internal/arm"
	"graphpa/internal/cfg"
	"graphpa/internal/dfg"
	"graphpa/internal/mining"
)

// This file holds the cross-round state of the incremental mine/extract
// loop. Each extraction round rewrites a handful of blocks; everything
// the analyses derived for the untouched rest — dependence graphs, node
// labels and mining graphs — is carried forward instead of recomputed.
// Call summaries are not: the driver solves them from scratch every
// round (DESIGN.md §8). All reuse is gated by proofs of equivalence
// (slice identity, summary equality); whenever equivalence cannot be
// shown the affected piece falls back to a full recomputation, so the
// incremental loop's output is byte-identical to the from-scratch
// loop's.

// incState is the driver's cross-round cache: one entry per block of the
// program view. cfg.Resplit keeps the *cfg.Block object of every
// content-identical block, so the block pointer is the key.
type incState struct {
	blocks map[*cfg.Block]*blockEntry
	primed bool // at least one round has populated the cache
}

// blockEntry is what one block carries across rounds: the instruction
// slice and call summaries its dependence graph was built from, the
// graph, and the mining graph a graph miner derived from it.
type blockEntry struct {
	instrs  []arm.Instr
	targets []targetEffect
	graph   *dfg.Graph
	// mg is nil until a graph miner builds it. callable is the CallSafe
	// flag baked into its edge pruning: a whole-function property that
	// can drift while the block stays untouched (an extraction can remove
	// the only pop {lr}).
	mg       *mining.Graph
	callable bool
}

func newIncState() *incState {
	return &incState{blocks: map[*cfg.Block]*blockEntry{}}
}

// buildGraphs produces the per-block dependence graphs for this round. A
// block keeps its entry while its instruction slice and every call
// summary its graph consumed are unchanged; every other block gets a
// fresh entry and a fresh graph. Entries of blocks that left the view
// are dropped.
func (st *incState) buildGraphs(view *cfg.Program, sums map[string]arm.Effects, dirty map[*cfg.Func]bool, stat *RoundStat) []*dfg.Graph {
	graphs := make([]*dfg.Graph, len(view.Blocks))
	next := make(map[*cfg.Block]*blockEntry, len(view.Blocks))
	for i, b := range view.Blocks {
		e := st.blocks[b]
		same := e != nil && sameSlice(b.Instrs, e.instrs)
		if same && targetsValid(e.targets, sums) {
			stat.BlocksReused++
		} else {
			stat.BlocksRebuilt++
			if st.primed && !dirty[b.Fn] && !same {
				// A rebuild with no dirty function and no summary drift
				// means the invalidation rules over-fired; the
				// differential tests assert this stays zero.
				stat.RebuiltClean++
			}
			g := dfg.Build(b, sums)
			// Labels are memoised once here, so every later round's
			// NodeLabel on a cached graph is an array read instead of a
			// fresh render.
			g.MemoLabels()
			e = &blockEntry{instrs: b.Instrs, targets: targetsOf(b, sums), graph: g}
		}
		next[b] = e
		graphs[i] = e.graph
	}
	st.blocks = next
	st.primed = true
	return graphs
}

// miningGraph returns the mining graph of g, a graph of this round's
// buildGraphs, under the call-safety flag callable. The graph cached in
// g's block entry is served while the entry still holds g and the flag
// still matches; only the block ID may have shifted under renumbering,
// so the frozen graph is copied and the ID restamped. st may be nil: a
// miner run outside the driver keeps nothing.
func (st *incState) miningGraph(g *dfg.Graph, callable, canonical bool) *mining.Graph {
	var e *blockEntry
	if st != nil {
		e = st.blocks[g.Block]
	}
	if e == nil || e.graph != g {
		return MiningGraph(g, canonical)
	}
	if e.mg != nil && e.callable == callable {
		cp := *e.mg
		cp.ID = g.Block.ID
		e.mg = &cp
	} else {
		e.mg, e.callable = MiningGraph(g, canonical), callable
	}
	return e.mg
}

// targetEffect records one call summary a graph consumed when it was
// built. A cached graph is only valid while every recorded summary still
// has the recorded value (including "target unknown" staying unknown).
type targetEffect struct {
	name string
	eff  arm.Effects
	ok   bool
}

func targetsOf(b *cfg.Block, sums map[string]arm.Effects) []targetEffect {
	var out []targetEffect
	for i := range b.Instrs {
		if b.Instrs[i].Op != arm.BL {
			continue
		}
		eff, ok := sums[b.Instrs[i].Target]
		out = append(out, targetEffect{name: b.Instrs[i].Target, eff: eff, ok: ok})
	}
	return out
}

func targetsValid(targets []targetEffect, sums map[string]arm.Effects) bool {
	for _, te := range targets {
		cur, ok := sums[te.name]
		if ok != te.ok || (ok && cur != te.eff) {
			return false
		}
	}
	return true
}

// sameSlice reports whether two instruction slices are the same slice
// (identical backing array and length). Every rewrite installs a fresh
// slice, so identity proves the block content is untouched.
func sameSlice(a, b []arm.Instr) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}
