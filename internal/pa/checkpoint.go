package pa

import (
	"math"

	"graphpa/internal/dfg"
	"graphpa/internal/mining"
)

// This file carries whole lattice subtrees across extraction rounds.
// Most of a round's mining time re-walks subtrees over blocks the last
// extraction never touched; the walk of such a subtree — which patterns
// are visited, in what order, and which candidates are admitted — is a
// deterministic function of (a) the embeddings' graphs and (b) the
// incumbent candidate bound read by the branch-and-bound policies. The
// checkpointer records both per subtree of the walk:
//
//   - The footprint: every embedding with its owning dependence-graph
//     object. Graph objects are only reused across rounds when their
//     block content and consumed summaries are unchanged (graphCache), so
//     object identity proves content identity.
//   - The bounds dependence. A subtree that admits no candidate reads the
//     incumbent only through threshold comparisons "value < best?"; each
//     observed comparison narrows a half-open validity region [lo, hi)
//     for the incumbent benefit within which every decision reproduces.
//     A subtree that admits a candidate moves the incumbent mid-walk and
//     is not recorded (DESIGN.md §10: such records never replayed at
//     default options).
//
// A later round's walk reaching the same DFS code fast-forwards the
// subtree when footprint and bounds validate, charging the recorded
// visit count against MaxPatterns (refusing when the recorded subtree
// would overrun the budget, since a truncated walk behaves differently
// from a replayed one). A recorded subtree admitted nothing, so its
// counts are all there is to replay. Any failed check falls back to live
// mining of that subtree — the correctness fallback; fast-forwarding only
// ever changes how much work is done, never the visit sequence or the
// mined output.

// ckMaxDepth bounds how deep (in DFS-code edges) subtree records are
// kept. Shallow roots dominate the payoff — a validated shallow record
// replays its entire subtree — while recording every deep pattern of an
// exploding walk costs far more in allocation and GC-scanned live memory
// than the occasional deep hit returns. Notes from deeper patterns still
// narrow the open shallow records, so gating loses coverage, never
// correctness.
const ckMaxDepth = 4

// latticeRec is one recorded subtree, keyed by its root's DFS code
// (Code.Key is injective, so the key alone identifies the code).
type latticeRec struct {
	graphs []*dfg.Graph   // per-embedding owning graph at record time
	embs   *mining.EmbSet // root embeddings at record time (flat slabs)
	safe   []bool         // CallSafe of each graph's function at record time

	bestLo, bestHi int // validity region: bestLo <= best < bestHi

	visits     int
	nonMinimal int // children rejected by the minimality test
}

// latticeMemo is the cross-round checkpoint store, written and read by
// one run's walks in turn.
type latticeMemo struct {
	recs map[string]*latticeRec // by Code.Key()
}

func newLatticeMemo() *latticeMemo {
	return &latticeMemo{recs: map[string]*latticeRec{}}
}

// sweep drops records anchored to dependence graphs that are no longer
// live: a dead graph object never reappears, so such records can never
// validate again.
func (m *latticeMemo) sweep(live map[*dfg.Graph]bool) {
	for k, rec := range m.recs {
		for _, g := range rec.graphs {
			if !live[g] {
				delete(m.recs, k)
				break
			}
		}
	}
}

// recBuilder is one open (Begin'd, not yet End'd) subtree record.
type recBuilder struct {
	rec      *latticeRec
	key      string // the root code's Key(), computed once
	admitted bool   // a candidate was admitted inside
}

// checkpointer implements mining.Checkpointer for one FindCandidates
// run: it records subtrees of the walk into the cross-round memo and
// fast-forwards subtrees the memo already covers.
type checkpointer struct {
	s    *search
	memo *latticeMemo
	byID map[int]*dfg.Graph
	safe map[*dfg.Graph]bool // CallSafe of each graph's function this round

	builders []*recBuilder // open records, innermost last

	// The key FastForward computed for its pattern, reused by the Begin
	// that immediately follows a refused fast-forward.
	lastKeyFor *mining.Pattern
	lastKey    string

	hits  int
	saved int
}

// footprintOK verifies the subtree's graphs are the recorded objects and
// the root embeddings are unchanged. Graph-object identity implies
// content identity (graphCache), and every pattern below the root embeds
// into a subset of the root's graphs, so the whole subtree's inputs are
// pinned. Embedding node/edge indices are content-relative and block IDs
// enter the walk only through order — which renumbering preserves — so
// index equality is the full condition.
func (ck *checkpointer) footprintOK(rec *latticeRec, p *mining.Pattern) bool {
	if !p.Embeddings.EqualData(rec.embs) {
		return false
	}
	for i := 0; i < p.Embeddings.Len(); i++ {
		g := ck.byID[p.Embeddings.GID(i)]
		if g != rec.graphs[i] || ck.safe[g] != rec.safe[i] {
			// Same graph object but drifted call-safety still invalidates:
			// CallSafe is a whole-function property baked into the mining
			// graph's edge pruning and the candidate's occurrence filter.
			return false
		}
	}
	return true
}

// FastForward implements mining.Checkpointer. The incumbent it validates
// against includes the sequence-seed floor: records taken under one
// floor validate under another only through the region check, exactly
// like mid-walk incumbent movement.
func (ck *checkpointer) FastForward(p *mining.Pattern, remaining int) (int, int, bool) {
	if len(p.Code) > ckMaxDepth {
		return 0, 0, false
	}
	key := p.Code.Key()
	ck.lastKeyFor, ck.lastKey = p, key
	rec := ck.memo.recs[key]
	if rec == nil || !ck.footprintOK(rec, p) {
		return 0, 0, false
	}
	if remaining >= 0 && rec.visits > remaining {
		// The budget would truncate inside this subtree; a replay cannot
		// reproduce a truncated walk.
		return 0, 0, false
	}
	if best := ck.s.bestBen; best < rec.bestLo || best >= rec.bestHi {
		return 0, 0, false
	}
	// The skipped subtree's bounds dependence becomes part of every
	// enclosing open record.
	for _, rb := range ck.builders {
		rb.rec.bestLo = max(rb.rec.bestLo, rec.bestLo)
		rb.rec.bestHi = min(rb.rec.bestHi, rec.bestHi)
	}
	ck.hits++
	ck.saved += rec.visits
	return rec.visits, rec.nonMinimal, true
}

// Begin implements mining.Checkpointer.
func (ck *checkpointer) Begin(p *mining.Pattern) any {
	if len(p.Code) > ckMaxDepth {
		return nil // deeper subtrees are not recorded (ckMaxDepth)
	}
	key := ck.lastKey
	if ck.lastKeyFor != p {
		key = p.Code.Key()
	}
	// The embedding set is uniquely owned by the pattern object (the
	// search builds fresh slabs per visit and never mutates them after),
	// so the record pins it without copying — and since the slabs are
	// pointer-free, the retained record costs the GC nothing to scan.
	n := p.Embeddings.Len()
	rec := &latticeRec{
		graphs: make([]*dfg.Graph, n),
		embs:   p.Embeddings,
		safe:   make([]bool, n),
		bestLo: math.MinInt,
		bestHi: math.MaxInt,
	}
	for i := 0; i < n; i++ {
		g := ck.byID[p.Embeddings.GID(i)]
		rec.graphs[i] = g
		rec.safe[i] = ck.safe[g]
	}
	rb := &recBuilder{rec: rec, key: key}
	ck.builders = append(ck.builders, rb)
	return rb
}

// End implements mining.Checkpointer. A truncated subtree keeps the
// key's older record: the walk did not finish this one. A subtree that
// admitted a candidate stores nothing and evicts the older record, which
// this walk has just superseded.
func (ck *checkpointer) End(token any, visits, nonMinimal int, truncated bool) {
	rb := token.(*recBuilder)
	ck.builders = ck.builders[:len(ck.builders)-1]
	if truncated {
		return
	}
	if rb.admitted {
		delete(ck.memo.recs, rb.key)
		return
	}
	rb.rec.visits, rb.rec.nonMinimal = visits, nonMinimal
	ck.memo.recs[rb.key] = rb.rec
}

// noteAdd flags every open record: each contains the admission, which
// moves the incumbent mid-subtree.
func (ck *checkpointer) noteAdd() {
	for _, rb := range ck.builders {
		rb.admitted = true
	}
}

// noteBest records a comparison against the incumbent benefit: less
// reports whether v < best held. Open records narrow their validity
// region so the comparison reproduces — v < best pins best >= v+1, its
// negation pins best < v+1.
func (ck *checkpointer) noteBest(v int, less bool) {
	for _, rb := range ck.builders {
		if less {
			rb.rec.bestLo = max(rb.rec.bestLo, v+1)
		} else {
			rb.rec.bestHi = min(rb.rec.bestHi, v+1)
		}
	}
}
