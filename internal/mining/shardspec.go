package mining

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
)

// SpecSession is the shard-worker half of the distributed lattice
// search: one session per walk, holding the decoded graphs, the
// canonical seed list (identical to the coordinator's — seedPatterns is
// deterministic over identical graphs) and the advisory pruning state.
// MineSeed runs the speculation phase for one seed subtree and returns
// the recorded tree in wire form; the coordinator decodes it around its
// own copy of the seed and feeds it to the authoritative replay.
//
// Everything a session records is state-independent (pattern
// construction, support, MIS, extension grouping, minimality) or
// advisory (which subtrees it bothered to explore), so a session
// working from a stale incumbent floor — or from no floor at all —
// costs the coordinator replay-fallback work, never output.
type SpecSession struct {
	cfg    Config
	gx     *graphIndex
	roots  []*ext
	budget *specBudget
	floor  atomic.Int64
	visits atomic.Int64
	ub     []int
}

// NewSpecSession builds a session over decoded graphs. The SpecConfig's
// UB table and floor reconstruct the coordinator's advisory pruning
// policies: UB[m] bounds the benefit of any subtree whose advisory
// occurrence count is m, and the floor is the (gossiped, monotone)
// incumbent benefit. An empty UB table disables advisory pruning — the
// session then records the full lattice below each seed, which is
// always sound.
func NewSpecSession(graphs []*Graph, sc SpecConfig) *SpecSession {
	gx := newGraphIndex(graphs) // freezes the graphs seedPatterns walks
	s := &SpecSession{
		gx:     gx,
		roots:  seedPatterns(graphs),
		budget: &specBudget{max: int64(sc.MaxPatterns)},
		ub:     sc.UB,
	}
	s.floor.Store(int64(sc.Floor))
	s.cfg = Config{
		MinSupport:       sc.MinSupport,
		MaxNodes:         sc.MaxNodes,
		EmbeddingSupport: sc.EmbeddingSupport,
		GreedyMIS:        sc.GreedyMIS,
		MISExactLimit:    sc.MISExactLimit,
		Lexicographic:    sc.Lexicographic,
		NewSpeculator:    s.newSpeculator,
	}
	return s
}

// ubOf is the advisory benefit bound for occurrence count m. Counts
// past the shipped table never prune — the coordinator ships a table
// wide enough for every count it would prune itself, so falling off the
// end means "no opinion", not "cut".
func (s *SpecSession) ubOf(m int) int {
	if m >= 0 && m < len(s.ub) {
		return s.ub[m]
	}
	return math.MaxInt
}

// advBound mirrors the coordinator's advisory occurrence bound: the
// exact independent-set size in embedding-support mode, the raw
// embedding count otherwise (graph-count support does not bound
// occurrences; the embedding count does).
func (s *SpecSession) advBound(p *Pattern) int {
	if s.cfg.EmbeddingSupport {
		return p.Support
	}
	return p.Embeddings.Len()
}

// newSpeculator supplies the advisory policies for one seed's
// speculation, mirroring the coordinator's shapes exactly: prune
// strictly below the floor, keep ties. PruneChild is installed only for
// the benefit-directed order, matching the coordinator's needBounds so
// both sides record (or both skip) the per-child bounds that replay
// consumes authoritatively.
func (s *SpecSession) newSpeculator() *Speculator {
	sp := &Speculator{
		Visit:        func(*Pattern) { s.visits.Add(1) },
		PruneSubtree: func(p *Pattern) bool { return s.ubOf(s.advBound(p)) < int(s.floor.Load()) },
		ViableCount:  func(count int) bool { return s.ubOf(count) >= int(s.floor.Load()) },
	}
	if !s.cfg.Lexicographic {
		sp.PruneChild = func(set *EmbSet, bound int) bool {
			return s.ubOf(bound) < int(s.floor.Load())
		}
	}
	return sp
}

// NumSeeds is the length of the canonical seed list.
func (s *SpecSession) NumSeeds() int { return len(s.roots) }

// SetFloor raises the advisory incumbent floor. Stale pushes (not above
// the current floor) are ignored; the return value reports whether the
// push took effect. Safe for concurrent use with MineSeed — the floor
// is advisory, so a racing read of the old value is just a slightly
// weaker prune.
func (s *SpecSession) SetFloor(floor int) bool {
	for {
		cur := s.floor.Load()
		if int64(floor) <= cur {
			return false
		}
		if s.floor.CompareAndSwap(cur, int64(floor)) {
			return true
		}
	}
}

// Visits is the total speculative pattern visits this session has run —
// the honest measure of shard-side search work.
func (s *SpecSession) Visits() int64 { return s.visits.Load() }

// MineSeed speculatively mines one seed subtree and returns its
// recorded tree in encodeSpecTree wire form. Safe for concurrent calls
// (each builds a private miner; the visit budget and floor are shared),
// so a worker daemon can serve overlapping seed requests.
func (s *SpecSession) MineSeed(ctx context.Context, seed int) ([]byte, error) {
	if seed < 0 || seed >= len(s.roots) {
		return nil, fmt.Errorf("mining: seed %d out of range [0,%d)", seed, len(s.roots))
	}
	sp := newSpeculator(ctx, s.cfg, s.gx, s.budget)
	root := sp.mine(Code{s.roots[seed].t}, s.roots[seed].set)
	return encodeSpecTree(root), nil
}
