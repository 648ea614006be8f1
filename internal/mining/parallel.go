package mining

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"graphpa/internal/par"
)

// This file parallelises the lattice search without giving up the serial
// search's exact visit sequence. The problem: the profitable search is
// stateful — PruneSubtree and ViableCount consult an incumbent that the
// visitor itself updates, so which subtrees get cut depends on visit
// order, and naive fan-out would change the mined output. The solution
// is speculate-then-replay: each 1-edge seed's subtree is mined on a
// worker using advisory (possibly stale) policy callbacks, recording the
// explored lattice as a tree of specNodes; a single consumer then
// replays the recorded trees in canonical seed order running the real
// control flow against the authoritative state. Everything recorded is
// state-independent (pattern construction, support/MIS, extension
// grouping, deduplication, minimality), so replay only re-checks the
// state-dependent decisions; wherever speculation explored too little —
// a subtree it pruned but the authoritative policy would enter, or an
// extension group it skipped — replay falls back to mining that part
// live. Correctness therefore never depends on the speculation policy;
// only the amount of redundant work does.

// Speculator is the per-worker policy of the speculative phase. All
// callbacks are optional.
type Speculator struct {
	// Visit observes each speculatively-explored frequent pattern. It
	// runs concurrently with other workers and with the authoritative
	// replay, so it must not mutate state the authoritative path reads
	// without its own synchronisation. Typical use: memoise expensive
	// pure by-products (independent sets, validated candidates) keyed by
	// the *Pattern, which replay later receives by pointer.
	Visit func(*Pattern)
	// PruneSubtree advises against descending below a pattern. A stale
	// or aggressive answer costs replay fallback work, never output.
	PruneSubtree func(*Pattern) bool
	// ViableCount advises on materialising an extension group.
	ViableCount func(count int) bool
	// PruneChild advises against descending into a materialised child,
	// given its embedding set and misUpperBound — the advisory twin of
	// Config.PruneChild. A stale or aggressive answer costs replay
	// fallback work, never output.
	PruneChild func(set *EmbSet, bound int) bool
	// SkipSubtree advises that the subtree below p is already covered by
	// the caller's cross-run checkpoint, so the authoritative replay will
	// likely fast-forward it; the speculator then records nothing below
	// p. Purely advisory: a wrong answer costs fallback work, never
	// output.
	SkipSubtree func(*Pattern) bool
}

// specNode records one speculatively-explored lattice node.
type specNode struct {
	p        *Pattern
	expanded bool // extensions were enumerated (exts is meaningful)
	exts     []specExt
}

// specExt records one extension group of an expanded node, in the order
// the serial walk would descend them: benefit-directed (bound desc, then
// tuple) among the materialised groups by default, pure tuple order under
// Config.Lexicographic. Bounds are pure functions of the child sets, so
// speculation and the serial walk compute identical orders.
type specExt struct {
	t            Tuple
	rawCount     int       // pass-1 candidate count (state-independent)
	materialized bool      // pass 2 was run during speculation
	dropped      bool      // materialised but deduplication fell below MinSupport
	minimal      bool      // child code passed the minimal-DFS-code test
	bound        int       // misUpperBound of set (when Config.needBounds)
	set          *EmbSet   // child embeddings (materialised, not dropped)
	child        *specNode // recorded subtree (minimal children, unless speculation stopped)
}

// cmpSpecExt orders a node's recorded extensions the way the serial
// benefit-directed expand visits its kids: materialised sets by cmpExt,
// everything without a set (unmaterialised or dropped — entries the
// serial kid list never contains) after them in tuple order.
func cmpSpecExt(a, b specExt) int {
	am, bm := a.set != nil, b.set != nil
	if am != bm {
		if am {
			return -1
		}
		return 1
	}
	if am && a.bound != b.bound {
		return b.bound - a.bound
	}
	return compareTuples(&a.t, &b.t)
}

// errAbort signals MaxPatterns truncation out of the ordered fan-in.
var errAbort = errors.New("mining: pattern budget exhausted")

// mineParallel runs the speculate-then-replay pipeline: one producer job
// per seed subtree, consumed (replayed) in canonical seed order. With
// cfg.RemoteSpec the producers fetch shard-recorded subtrees instead of
// speculating locally; a failed fetch or decode degrades that seed to
// local speculation, so the replay consumer never sees the difference.
func mineParallel(gx *graphIndex, roots []*ext, cfg Config, visit func(*Pattern)) int {
	auth := &miner{cfg: cfg, gx: gx, visit: visit}
	budget := &specBudget{max: int64(cfg.MaxPatterns)}
	width := cfg.Workers
	if cfg.RemoteSpec != nil && width < 8 {
		// Remote producers spend their time blocked on shard RPCs, not on
		// CPU: keep enough seed requests in flight to cover the round-trip
		// latency regardless of the local worker setting.
		width = 8
	}
	var remSeeds, remTrees, remFallbacks atomic.Int64
	err := par.OrderedMap(context.Background(), width, len(roots),
		func(ctx context.Context, i int) (*specNode, error) {
			if cfg.RemoteSpec != nil {
				remSeeds.Add(1)
				if data, err := cfg.RemoteSpec(ctx, i); err == nil {
					if root, derr := decodeSpecTree(data, Code{roots[i].t}, roots[i].set, gx.graph); derr == nil {
						remTrees.Add(1)
						return root, nil
					}
				}
				// Count real shard failures only: a cancelled walk makes
				// every in-flight RPC error, and those seeds' local
				// speculation is a no-op anyway (budgetLeft sees ctx.Err).
				if ctx.Err() == nil {
					remFallbacks.Add(1)
				}
			}
			s := newSpeculator(ctx, cfg, gx, budget)
			return s.mine(Code{roots[i].t}, roots[i].set), nil
		},
		func(i int, root *specNode) error {
			auth.replay(root)
			if auth.aborted {
				return errAbort
			}
			return nil
		})
	if cfg.RemoteSpec != nil && cfg.NoteRemoteSpec != nil {
		cfg.NoteRemoteSpec(int(remSeeds.Load()), int(remTrees.Load()), int(remFallbacks.Load()))
	}
	if err != nil && !errors.Is(err, errAbort) {
		// Producers and the replay consumer return no other error, and
		// worker panics re-raise inside OrderedMap.
		panic(err)
	}
	auth.noteEnd()
	return auth.visited
}

// specBudget caps total speculative visits across all workers at the
// global MaxPatterns: the authoritative replay truncates there, so any
// speculation past it is guaranteed waste. Shared and monotone — seeds
// are speculated in roughly replay order, so the visits that fit the
// budget are roughly the ones replay will consume.
type specBudget struct {
	mu  sync.Mutex
	n   int64
	max int64 // <= 0: unlimited
}

func (b *specBudget) spend() bool {
	if b.max <= 0 {
		return true
	}
	b.mu.Lock()
	b.n++
	ok := b.n <= b.max
	b.mu.Unlock()
	return ok
}

// speculator mines one seed subtree on a worker. It owns a private miner
// (scratch marks) and shares the global speculation budget.
type speculator struct {
	ctx     context.Context
	mn      miner
	sp      Speculator
	budget  *specBudget
	stopped bool
}

func newSpeculator(ctx context.Context, cfg Config, gx *graphIndex, budget *specBudget) *speculator {
	s := &speculator{ctx: ctx, budget: budget}
	s.mn = miner{cfg: cfg, gx: gx}
	if cfg.NewSpeculator != nil {
		if sp := cfg.NewSpeculator(); sp != nil {
			s.sp = *sp
		}
	} else {
		s.sp = Speculator{PruneSubtree: cfg.PruneSubtree, ViableCount: cfg.ViableCount, PruneChild: cfg.PruneChild}
	}
	return s
}

// budgetLeft reports whether speculation may go on: the global visit
// budget has room and the fan-in was not cancelled.
func (s *speculator) budgetLeft() bool {
	if s.stopped {
		return false
	}
	if s.ctx.Err() != nil {
		s.stopped = true
	}
	return !s.stopped
}

// mine explores (code, set) speculatively, recording what it finds.
func (s *speculator) mine(code Code, set *EmbSet) *specNode {
	p := s.mn.pattern(code, set)
	n := &specNode{p: p}
	if p.Support < s.mn.cfg.MinSupport {
		return n
	}
	if s.sp.Visit != nil {
		s.sp.Visit(p)
	}
	if !s.budget.spend() {
		s.stopped = true
	}
	if !s.budgetLeft() {
		return n
	}
	if s.mn.cfg.MaxNodes > 0 && code.NumNodes() >= s.mn.cfg.MaxNodes {
		return n
	}
	if s.sp.PruneSubtree != nil && s.sp.PruneSubtree(p) {
		return n
	}
	if s.sp.SkipSubtree != nil && s.sp.SkipSubtree(p) {
		return n
	}
	groups := s.mn.extendGroups(code, set)
	n.expanded = true
	n.exts = make([]specExt, len(groups))
	// Phase 1: materialise (and minimality-check) every admitted group
	// before any descent — groups alias the miner's scratch, which the
	// recursion below reuses.
	for gi, g := range groups {
		se := specExt{t: g.t, rawCount: len(g.cands)}
		if s.sp.ViableCount == nil || s.sp.ViableCount(len(g.cands)) {
			se.materialized = true
			cset, ok := s.mn.materialize(g, set)
			if !ok {
				se.dropped = true
			} else {
				se.set = cset
				if s.mn.cfg.needBounds() {
					se.bound = misUpperBound(cset, &s.mn.sc.mis)
				}
				se.minimal = s.mn.childMinimal(code, g.t)
			}
		}
		n.exts[gi] = se
	}
	// Record the extensions in the order the serial walk descends them,
	// so replay consumes them front to back. Bounds are pure functions of
	// the child sets — speculation and replay agree on the order.
	if !s.mn.cfg.Lexicographic {
		slices.SortFunc(n.exts, cmpSpecExt)
	}
	// Phase 2: descend into the minimal children. The recursion order is
	// the serial one; only the scratch reuse forced the split. An
	// advisory PruneChild skip leaves child nil — if the authoritative
	// policy disagrees, replay mines that subtree live.
	for gi := range n.exts {
		se := &n.exts[gi]
		if se.minimal && s.budgetLeft() {
			if s.sp.PruneChild != nil && s.sp.PruneChild(se.set, se.bound) {
				continue
			}
			child := append(append(Code{}, code...), se.t)
			se.child = s.mine(child, se.set)
		}
	}
	return n
}

// replay walks a recorded subtree running the serial search's exact
// control flow against the authoritative state. Any gap in the record —
// the speculation stopped where the authoritative policy descends, or
// skipped a group the authoritative policy wants — falls back to live
// serial mining of that part.
func (mn *miner) replay(n *specNode) {
	if mn.aborted {
		return
	}
	p := n.p
	if p.Support < mn.cfg.MinSupport {
		return
	}
	mn.visitFrequent(p, func() { mn.replayExpand(n) })
}

// replayExpand is replay's descent below one recorded node: re-check
// group viability against the authoritative state and walk the recorded
// children, falling back to live mining on any speculation gap.
func (mn *miner) replayExpand(n *specNode) {
	p := n.p
	if !n.expanded {
		mn.expand(p.Code, p.Embeddings)
		return
	}
	// The serial search decides every group's viability inside extend,
	// before any child visit can move the incumbent: freeze all decisions
	// now, against the current state.
	use := make([]bool, len(n.exts))
	for i := range n.exts {
		e := &n.exts[i]
		use[i] = mn.cfg.ViableCount == nil || mn.cfg.ViableCount(e.rawCount)
		if use[i] && !e.materialized {
			// Speculation skipped a group the authoritative policy
			// wants; its raw candidates were not kept, so redo this
			// node's whole extension step live.
			mn.expand(p.Code, p.Embeddings)
			return
		}
	}
	for i := range n.exts {
		if mn.aborted {
			return
		}
		e := &n.exts[i]
		if !use[i] || e.dropped {
			continue
		}
		// Same per-kid sequence as the serial expand: the authoritative
		// PruneChild fires before the minimality check, so its comparison
		// trace (which the lattice checkpointer records) is identical.
		if mn.cfg.PruneChild != nil && mn.cfg.PruneChild(e.set, e.bound) {
			continue
		}
		if !e.minimal {
			mn.nonMinimal++
			continue
		}
		if e.child != nil {
			mn.replay(e.child)
		} else {
			child := append(append(Code{}, p.Code...), e.t)
			mn.dfs(child, e.set)
		}
	}
}
