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
// incumbent candidate bounds read by the branch-and-bound policies. The
// checkpointer records both per subtree of the walk:
//
//   - The footprint: every embedding with its owning dependence-graph
//     object. Graph objects are only reused across rounds when their
//     block content and consumed summaries are unchanged (graphCache), so
//     object identity proves content identity.
//   - The bounds dependence. Subtrees that admit no candidate read the
//     incumbent only through threshold comparisons "value < best?"; each
//     observed comparison narrows a half-open validity region [lo, hi)
//     for the incumbent benefit within which every decision reproduces.
//     Subtrees that DO admit candidates move the incumbent mid-walk;
//     they are recorded in exact mode — valid only when the incumbent
//     benefit at entry matches — because then the interior bound
//     trajectory evolves identically too.
//
// A later round's walk reaching the same DFS code fast-forwards the
// subtree when footprint and bounds validate: it replays the recorded
// admissions and charges the recorded visit count against MaxPatterns
// (refusing when the recorded subtree would overrun the budget, since a
// truncated walk behaves differently from a replayed one). Any failed
// check falls back to live mining of that subtree — the correctness
// fallback; fast-forwarding only ever changes how much work is done,
// never the visit sequence or the mined output.

// ckMaxDepth bounds how deep (in DFS-code edges) subtree records are
// kept. Shallow roots dominate the payoff — a validated shallow record
// replays its entire subtree, and the per-pattern memos of the few
// shallow patterns cover the expensive wide frontier — while recording
// every deep pattern of an exploding walk costs far more in allocation
// and GC-scanned live memory than the occasional deep hit returns.
// Notes from deeper patterns still narrow the open shallow records, so
// gating loses coverage, never correctness.
const ckMaxDepth = 4

// latticeRec is one recorded subtree, keyed by its root's DFS code
// (Code.Key is injective, so the key alone identifies the code).
type latticeRec struct {
	graphs []*dfg.Graph   // per-embedding owning graph at record time
	embs   *mining.EmbSet // root embeddings at record time (flat slabs)
	safe   []bool         // CallSafe of each graph's function at record time

	exact     bool // admissions inside: valid only for an identical entry incumbent
	entryBest int  // incumbent benefit at entry

	bestLo, bestHi int // non-exact validity: bestLo <= best < bestHi

	visits     int
	nonMinimal int          // children rejected by the minimality test
	adds       []*Candidate // admissions, in walk order

	// Per-pattern memo of the root visit's pure by-products. Occurrence
	// filtering does not depend on the bail threshold, so a non-nil cand
	// is exact for every admission threshold, a nil cand stands for every
	// threshold >= candThr. Unlike the subtree replay these only need the
	// footprint to validate, not the bounds regions, so they keep paying
	// off after an extraction shifts the incumbent trajectory.
	cand         *Candidate
	candThr      int
	disjoint     []int32 // DgSpan independent set, as root-embedding rows
	haveCand     bool    // the two flags share the record's last word
	haveDisjoint bool
}

// latticeMemo is the cross-round checkpoint store, written and read by
// one run's walks in turn.
type latticeMemo struct {
	recs map[string]*latticeRec // by Code.Key()
}

func newLatticeMemo() *latticeMemo {
	return &latticeMemo{recs: map[string]*latticeRec{}}
}

func (m *latticeMemo) get(key string) *latticeRec { return m.recs[key] }

func (m *latticeMemo) put(key string, rec *latticeRec) { m.recs[key] = rec }

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
	p        *mining.Pattern // the subtree's root pattern
	key      string          // the root code's Key(), computed once
	logStart int             // admissions log length at Begin
	exact    bool            // an admission happened inside
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
	log      []*Candidate  // admissions in walk order

	// The footprint-valid record FastForward last found for a pattern it
	// could not fully replay (bounds or budget refused): the visit that
	// follows reuses the record's per-pattern memo through patRec.
	lastFor *mining.Pattern
	lastRec *latticeRec

	// The key FastForward computed for its pattern, reused by the Begin
	// that immediately follows a refused fast-forward.
	lastKeyFor *mining.Pattern
	lastKey    string

	hits  int
	saved int
}

// snapshot reads the incumbent benefit the bounds state reduces to.
// (The sequence-seed floor is part of it: records taken under one floor
// validate under another only through the region checks, exactly like
// mid-walk incumbent movement.)
func (ck *checkpointer) snapshot() int {
	return ck.s.bestBen
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

func (ck *checkpointer) validFor(rec *latticeRec, best int) bool {
	if rec.exact {
		// Admissions inside compare against the moving incumbent, whose
		// whole trajectory is determined by its entry value (tie-set
		// membership never feeds back into the walk), so entry equality is
		// the exact condition.
		return best == rec.entryBest
	}
	return best >= rec.bestLo && best < rec.bestHi
}

// FastForward implements mining.Checkpointer.
func (ck *checkpointer) FastForward(p *mining.Pattern, remaining int) (int, int, bool) {
	if len(p.Code) > ckMaxDepth {
		return 0, 0, false
	}
	key := p.Code.Key()
	ck.lastKeyFor, ck.lastKey = p, key
	rec := ck.memo.get(key)
	if rec == nil {
		return 0, 0, false
	}
	if !ck.footprintOK(rec, p) {
		return 0, 0, false
	}
	// The footprint holds even if the replay below is refused: the visit
	// that follows can still reuse the record's per-pattern memo.
	ck.lastFor, ck.lastRec = p, rec
	if remaining >= 0 && rec.visits > remaining {
		// The budget would truncate inside this subtree; a replay cannot
		// reproduce a truncated walk.
		return 0, 0, false
	}
	if !ck.validFor(rec, ck.snapshot()) {
		return 0, 0, false
	}
	for _, c := range rec.adds {
		ck.s.admit(c) // runs noteAdd: enclosing open records turn exact
	}
	if !rec.exact {
		// The skipped subtree's bounds dependence becomes part of every
		// enclosing record still in region mode.
		for _, rb := range ck.builders {
			if rb.exact {
				continue
			}
			r := rb.rec
			if rec.bestLo > r.bestLo {
				r.bestLo = rec.bestLo
			}
			if rec.bestHi < r.bestHi {
				r.bestHi = rec.bestHi
			}
		}
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
		graphs:    make([]*dfg.Graph, n),
		embs:      p.Embeddings,
		safe:      make([]bool, n),
		entryBest: ck.snapshot(),
		bestLo:    math.MinInt,
		bestHi:    math.MaxInt,
	}
	for i := 0; i < n; i++ {
		g := ck.byID[p.Embeddings.GID(i)]
		rec.graphs[i] = g
		rec.safe[i] = ck.safe[g]
	}
	rb := &recBuilder{rec: rec, p: p, key: key, logStart: len(ck.log)}
	ck.builders = append(ck.builders, rb)
	return rb
}

// End implements mining.Checkpointer.
func (ck *checkpointer) End(token any, visits, nonMinimal int, truncated bool) {
	rb := token.(*recBuilder)
	ck.builders = ck.builders[:len(ck.builders)-1]
	if truncated {
		return // the walk did not finish this subtree; unusable
	}
	rec := rb.rec
	rec.visits, rec.nonMinimal = visits, nonMinimal
	rec.adds = append([]*Candidate(nil), ck.log[rb.logStart:]...)
	rec.exact = rb.exact
	ck.memo.put(rb.key, rec)
}

// patRec returns the footprint-valid previous-round record of p, if
// FastForward found one it could not fully replay. Only valid during p's
// own visit (each pattern object is visited exactly once).
func (ck *checkpointer) patRec(p *mining.Pattern) *latticeRec {
	if ck.lastFor == p {
		return ck.lastRec
	}
	return nil
}

// noteCand stores the visit's candidate outcome into p's own open
// record, carrying its threshold contract (see latticeRec) across
// rounds. Under depth gating the innermost open record may belong to a
// shallow ancestor rather than p, so the builder identity is checked.
func (ck *checkpointer) noteCand(p *mining.Pattern, c *Candidate, thr int) {
	if len(ck.builders) == 0 {
		return
	}
	rb := ck.builders[len(ck.builders)-1]
	if rb.p != p {
		return
	}
	rb.rec.cand, rb.rec.candThr, rb.rec.haveCand = c, thr, true
}

// noteDisjoint stores the DgSpan independent set (as root-embedding
// rows) into p's own open record.
func (ck *checkpointer) noteDisjoint(p *mining.Pattern, idx []int32) {
	if len(ck.builders) == 0 {
		return
	}
	rb := ck.builders[len(ck.builders)-1]
	if rb.p != p {
		return
	}
	rb.rec.disjoint, rb.rec.haveDisjoint = idx, true
}

// noteAdd logs a candidate admission: every open record contains it and
// must switch to exact-entry validation.
func (ck *checkpointer) noteAdd(c *Candidate) {
	ck.log = append(ck.log, c)
	for _, rb := range ck.builders {
		rb.exact = true
	}
}

// noteBest records a comparison against the incumbent benefit: less
// reports whether v < best held. Open region-mode records narrow their
// validity region so the comparison reproduces — v < best pins
// best >= v+1, its negation pins best < v+1.
func (ck *checkpointer) noteBest(v int, less bool) {
	for _, rb := range ck.builders {
		if rb.exact {
			continue
		}
		if less {
			if v+1 > rb.rec.bestLo {
				rb.rec.bestLo = v + 1
			}
		} else if v+1 < rb.rec.bestHi {
			rb.rec.bestHi = v + 1
		}
	}
}
