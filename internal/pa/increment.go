package pa

import (
	"context"

	"graphpa/internal/arm"
	"graphpa/internal/cfg"
	"graphpa/internal/dfg"
	"graphpa/internal/mining"
	"graphpa/internal/par"
)

// This file holds the cross-round state of the incremental mine/extract
// loop. Each extraction round rewrites a handful of blocks; everything
// the analyses derived for the untouched rest — call summaries,
// dependence graphs, node labels, mining graphs, and (via checkpoint.go)
// whole lattice subtrees — is carried forward instead of recomputed. All
// reuse is gated by proofs of equivalence (content identity, summary
// equality, footprint checks); whenever equivalence cannot be shown the
// affected piece falls back to a full recomputation, so the incremental
// loop's output is byte-identical to the from-scratch loop's.

// incState is the driver's cross-round cache bundle.
type incState struct {
	raw    map[string]arm.Effects // undecorated call-summary fixpoint
	graphs *graphCache
	m      incMining
	primed bool // at least one round has populated the caches
}

// incMining is the slice of incState handed to the miner through
// Options.inc: the lattice checkpoint store, the mining-graph cache and
// the current round's stat sink.
type incMining struct {
	memo *latticeMemo
	mg   map[*dfg.Graph]mgEntry
	stat *RoundStat
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
	st := &incState{graphs: newGraphCache()}
	st.m.memo = newLatticeMemo()
	st.m.mg = map[*dfg.Graph]mgEntry{}
	return st
}

// updateSummaries maintains the interprocedural summary fixpoint across
// rounds. Only the reverse-call-graph closure of the rewritten functions
// is re-solved; every other function's raw value is pinned — sound
// because the pinned set is closed under calls, so its equations are
// untouched (see rawSummaries).
func (st *incState) updateSummaries(view *cfg.Program, dirty map[*cfg.Func]bool, stat *RoundStat) map[string]arm.Effects {
	if st.raw == nil {
		st.raw = rawSummaries(view, nil, nil)
		stat.SummariesRecomputed = len(view.Funcs)
		stat.SummariesChanged = len(view.Funcs)
		return decorateSummaries(st.raw)
	}

	callers := map[string][]string{}
	for _, fn := range view.Funcs {
		for _, b := range fn.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Op == arm.BL && b.Instrs[i].Target != "" {
					callers[b.Instrs[i].Target] = append(callers[b.Instrs[i].Target], fn.Name)
				}
			}
		}
	}
	recompute := map[string]bool{}
	var queue []string
	add := func(name string) {
		if !recompute[name] {
			recompute[name] = true
			queue = append(queue, name)
		}
	}
	for fn := range dirty {
		add(fn.Name)
	}
	for _, fn := range view.Funcs {
		if _, ok := st.raw[fn.Name]; !ok {
			add(fn.Name)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range callers[n] {
			add(c)
		}
	}

	raw := rawSummaries(view, st.raw, recompute)
	changed := 0
	for name := range recompute {
		if old, ok := st.raw[name]; !ok || old != raw[name] {
			changed++
		}
	}
	stat.SummariesRecomputed = len(recompute)
	stat.SummariesChanged = changed
	st.raw = raw
	return decorateSummaries(raw)
}

// buildGraphs produces the per-block dependence graphs for this round,
// reusing cached graphs wherever block content and the consumed call
// summaries are unchanged and building only the rest (in parallel when
// configured, preserving block order exactly like the full build).
func (st *incState) buildGraphs(ctx context.Context, view *cfg.Program, sums map[string]arm.Effects, dirty map[*cfg.Func]bool, opts Options, stat *RoundStat) ([]*dfg.Graph, error) {
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
	if w := opts.workers(); w > 1 && len(missIdx) > 1 {
		if err := par.Do(ctx, w, len(missIdx), func(_ context.Context, j int) error {
			i := missIdx[j]
			graphs[i] = dfg.Build(view.Blocks[i], sums)
			return nil
		}); err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			panic(err) // workers return no errors; panics re-raise in par.Do
		}
	} else {
		for _, i := range missIdx {
			graphs[i] = dfg.Build(view.Blocks[i], sums)
		}
	}
	for _, i := range missIdx {
		c.insert(view.Blocks[i], graphs[i], sums)
	}
	c.sweepBlocks(view.Blocks)
	c.evict()
	st.primed = true
	return graphs, nil
}

// beginMining prepares the miner-facing caches for a round: checkpoint
// records and mining graphs whose dependence graphs are no longer live
// can never validate again (a dead graph object never reappears in a
// later round's graph set) and are dropped.
func (st *incState) beginMining(graphs []*dfg.Graph, stat *RoundStat) {
	live := make(map[*dfg.Graph]bool, len(graphs))
	for _, g := range graphs {
		live[g] = true
	}
	st.m.memo.sweep(live)
	for g := range st.m.mg {
		if !live[g] {
			delete(st.m.mg, g)
		}
	}
	st.m.stat = stat
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
// its previous graph object outright — which in turn keeps the lattice
// checkpoints anchored to it alive. byHash is the content path: a fresh
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
	// Labels are memoised eagerly: a cached graph may later be read by
	// concurrent sequence-scan workers, and lazy memoisation would race.
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
