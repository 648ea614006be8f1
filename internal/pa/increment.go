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
// (content identity, summary equality); whenever equivalence cannot be
// shown the affected piece falls back to a full recomputation, so the
// incremental loop's output is byte-identical to the from-scratch
// loop's.

// incState is the driver's cross-round cache bundle.
type incState struct {
	graphs *graphCache
	m      incMining
	primed bool // at least one round has populated the caches
}

// incMining is the slice of incState handed to the miner through
// Options.inc: the mining-graph cache.
type incMining struct {
	mg map[*dfg.Graph]mgEntry
}

// mgEntry is one cached mining graph plus the call-safety flag baked
// into it: MiningGraph prunes edges of non-call-safe functions, and
// CallSafe is a whole-function property that can drift while a block
// (and hence its dependence graph object) stays untouched.
type mgEntry struct {
	mg       *mining.Graph
	callable bool
}

func newIncState() *incState {
	return &incState{graphs: newGraphCache(), m: incMining{mg: map[*dfg.Graph]mgEntry{}}}
}

// buildGraphs produces the per-block dependence graphs for this round,
// reusing cached graphs wherever block content and the consumed call
// summaries are unchanged and building only the rest. Every lookup runs
// before any insert, so a block never reuses a template built earlier in
// the same round.
func (st *incState) buildGraphs(view *cfg.Program, sums map[string]arm.Effects, dirty map[*cfg.Func]bool, stat *RoundStat) []*dfg.Graph {
	c := st.graphs
	c.gen++
	graphs := make([]*dfg.Graph, len(view.Blocks))
	var missIdx []int
	for i, b := range view.Blocks {
		g, kind, mismatch := c.lookup(b, sums)
		switch kind {
		case hitSame:
			stat.BlocksReused++
		case hitRebound:
			stat.BlocksRebound++
		default:
			stat.BlocksRebuilt++
			if st.primed && !dirty[b.Fn] && !mismatch {
				// A rebuild with no dirty function and no summary drift
				// means the invalidation rules over-fired; the
				// differential tests assert this stays zero.
				stat.RebuiltClean++
			}
			missIdx = append(missIdx, i)
		}
		graphs[i] = g
	}
	for _, i := range missIdx {
		graphs[i] = dfg.Build(view.Blocks[i], sums)
		c.insert(view.Blocks[i], graphs[i], sums)
	}
	c.sweepBlocks(view.Blocks)
	c.evict()
	st.primed = true
	return graphs
}

// beginMining prepares the miner-facing cache for a round: mining graphs
// whose dependence graphs are no longer live can never be reused (a dead
// graph object never reappears in a later round's graph set) and are
// dropped.
func (st *incState) beginMining(graphs []*dfg.Graph) {
	live := make(map[*dfg.Graph]bool, len(graphs))
	for _, g := range graphs {
		live[g] = true
	}
	for g := range st.m.mg {
		if !live[g] {
			delete(st.m.mg, g)
		}
	}
}

// Graph-cache hit kinds.
const (
	hitSame    = iota // same block object, same content, same summaries
	hitRebound        // identical content under a fresh block object
	missBuild         // no reusable template
)

// targetEffect records one call summary a graph consumed when it was
// built. A cached graph is only valid while every recorded summary still
// has the recorded value (including "target unknown" staying unknown).
type targetEffect struct {
	name string
	eff  arm.Effects
	ok   bool
}

// graphTemplate is a dependence graph keyed by block content: the instr
// slice it was built from, the summaries it consumed, and the graph.
// Identical content under a different block object reuses the template
// through a cheap Rebind instead of a rebuild.
type graphTemplate struct {
	instrs  []arm.Instr
	graph   *dfg.Graph
	targets []targetEffect
	gen     int
}

// boundGraph binds a template to one concrete block.
type boundGraph struct {
	tmpl  *graphTemplate
	graph *dfg.Graph // tmpl.graph or its Rebind onto the block
}

// graphCache caches dependence graphs across rounds. byBlock is the fast
// path: a block object whose instr slice is identical (rewrites always
// install fresh slices, so slice identity proves content identity) reuses
// its previous graph object outright — which in turn keeps its cached
// mining graph alive. byHash is the content path: a fresh
// block object (a dirty function's re-split) with byte-identical content
// rebinds an existing template, paying a struct copy instead of a build.
type graphCache struct {
	byBlock map[*cfg.Block]*boundGraph
	byHash  map[uint64][]*graphTemplate
	gen     int
}

func newGraphCache() *graphCache {
	return &graphCache{
		byBlock: map[*cfg.Block]*boundGraph{},
		byHash:  map[uint64][]*graphTemplate{},
	}
}

func (c *graphCache) lookup(b *cfg.Block, sums map[string]arm.Effects) (*dfg.Graph, int, bool) {
	mismatch := false
	if bg := c.byBlock[b]; bg != nil && sameSlice(b.Instrs, bg.tmpl.instrs) {
		if targetsValid(bg.tmpl, sums) {
			bg.tmpl.gen = c.gen
			return bg.graph, hitSame, false
		}
		mismatch = true
	}
	h := hashInstrs(b.Instrs)
	for _, tmpl := range c.byHash[h] {
		if !instrsEqual(tmpl.instrs, b.Instrs) {
			continue
		}
		if !targetsValid(tmpl, sums) {
			mismatch = true
			continue
		}
		g := tmpl.graph.Rebind(b)
		c.byBlock[b] = &boundGraph{tmpl: tmpl, graph: g}
		tmpl.gen = c.gen
		return g, hitRebound, mismatch
	}
	return nil, missBuild, mismatch
}

func (c *graphCache) insert(b *cfg.Block, g *dfg.Graph, sums map[string]arm.Effects) {
	// Labels are memoised once here, so every later round's NodeLabel
	// on a cached graph is an array read instead of a fresh render.
	g.MemoLabels()
	tmpl := &graphTemplate{instrs: b.Instrs, graph: g, targets: targetsOf(b, sums), gen: c.gen}
	h := hashInstrs(b.Instrs)
	c.byHash[h] = append(c.byHash[h], tmpl)
	c.byBlock[b] = &boundGraph{tmpl: tmpl, graph: g}
}

// sweepBlocks drops bindings of blocks no longer in the program view.
func (c *graphCache) sweepBlocks(blocks []*cfg.Block) {
	live := make(map[*cfg.Block]bool, len(blocks))
	for _, b := range blocks {
		live[b] = true
	}
	for b := range c.byBlock {
		if !live[b] {
			delete(c.byBlock, b)
		}
	}
}

// evict drops content templates that went unused for a full round. Every
// live block refreshes its template's gen each round, so this only sheds
// content that vanished from the program.
func (c *graphCache) evict() {
	for h, tmpls := range c.byHash {
		kept := tmpls[:0]
		for _, t := range tmpls {
			if t.gen >= c.gen-1 {
				kept = append(kept, t)
			}
		}
		if len(kept) == 0 {
			delete(c.byHash, h)
		} else {
			c.byHash[h] = kept
		}
	}
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

func targetsValid(tmpl *graphTemplate, sums map[string]arm.Effects) bool {
	for _, te := range tmpl.targets {
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

func instrsEqual(a, b []arm.Instr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// hashInstrs is an FNV-1a content hash over every instruction field.
func hashInstrs(instrs []arm.Instr) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	mixs := func(s string) {
		for i := 0; i < len(s); i++ {
			mix(uint64(s[i]))
		}
		mix(0xff) // terminator: "ab","c" hashes differently from "a","bc"
	}
	mix(uint64(len(instrs)))
	for i := range instrs {
		in := &instrs[i]
		mix(uint64(in.Op))
		mix(uint64(in.Cond))
		if in.SetS {
			mix(1)
		} else {
			mix(0)
		}
		mix(uint64(uint32(in.Rd)))
		mix(uint64(uint32(in.Rn)))
		mix(uint64(uint32(in.Rm)))
		mix(uint64(uint32(in.Ra)))
		mix(uint64(in.Shift))
		mix(uint64(uint32(in.ShAmt)))
		mix(uint64(uint32(in.Imm)))
		if in.HasImm {
			mix(1)
		} else {
			mix(0)
		}
		mix(uint64(in.Reglist))
		mixs(in.Target)
	}
	return h
}
