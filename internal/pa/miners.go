package pa

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"graphpa/internal/arm"
	"graphpa/internal/cfg"
	"graphpa/internal/dfg"
	"graphpa/internal/mining"
)

// Miner finds extractable fragments of the current program view, best
// first. Implementations: GraphMiner (DgSpan/Edgar) here, and the
// suffix-trie baseline in internal/sfx.
type Miner interface {
	Name() string
	// FindCandidates returns profitable candidates ordered by descending
	// benefit. The first entry is guaranteed to be a best candidate; the
	// rest are good runners-up the driver may also apply in the same
	// round when their blocks do not conflict.
	FindCandidates(view *cfg.Program, graphs []*dfg.Graph, opts Options) []*Candidate
}

// fragUB is the optimistic benefit of a k-node fragment with at most m
// occurrences, whichever extraction mechanism wins. Monotone increasing
// in both k and m over the useful range (m >= 2), so fragUB(maxK, bound)
// dominates every candidate any descendant pattern can yield. This is
// the legacy walk bound, kept for the Lexicographic reference arm; the
// benefit-directed walk bounds with CallBenefit alone (see newSearch).
func fragUB(k, m int) int {
	ub := CallBenefit(k, m)
	if cb := CrossJumpBenefit(k, m); cb > ub {
		ub = cb
	}
	return ub
}

// ubTabM is the embedding-count range covered by the search's
// precomputed fragUB table (satellite of the benefit-directed walk:
// fragUB is pure, so the hot policies index a flat table instead of
// recomputing the two benefit polynomials per comparison).
const ubTabM = 2048

// search is the state of one lattice walk: the scalar incumbent read by
// the branch-and-bound policies and raised by the visitor.
//
// The incumbent is deliberately a single scalar plus its tie set, not a
// ranked list. With admissible bounds and strictly-less pruning
// (UB < bestBen), every candidate whose benefit equals the final maximum
// survives under ANY sibling visit order: each of its ancestors has an
// upper bound at least that maximum, which never drops below the
// incumbent. The final (bestBen, ties-as-a-set) is therefore identical
// between the lexicographic and benefit-directed walks — the property
// the Result-identity guarantee rests on. A ranked runner-up list has no
// such invariance (which sub-maximum candidates get built depends on
// when the bound rises), so runners-up come from the order-invariant
// sequence seeds instead (see FindCandidates).
type search struct {
	bestBen int          // incumbent: highest known admissible benefit (seed floor at start)
	ties    []*Candidate // mined candidates with Benefit == bestBen, admission order
	// ck, when non-nil, records the walk for cross-round fast-forwarding
	// (checkpoint.go).
	ck *checkpointer

	// ub is the walk-bound memo: ub[(k-2)*ubTabM+m] is the optimistic
	// benefit of a k-node fragment with at most m occurrences, for k in
	// [2, maxK], m in [0, ubTabM). Built once per run (CallBenefit for
	// the benefit-directed walk, legacy fragUB for the Lexicographic
	// reference — see newSearch), then read-only.
	ub    []int
	bound func(k, m int) int // the table's generator, for out-of-range m
	maxK  int

	// lastSelFor/lastSelN stash the exact independent-set size computed
	// by the most recent visit (DgSpan mode only), so the subtree prune
	// that immediately follows the visit can bound with the real
	// extraction count instead of the raw embedding count.
	lastSelFor *mining.Pattern
	lastSelN   int

	// conv is the occurrence-validation scratch, kept for the whole
	// walk.
	conv convexScratch
}

// newSearch builds the run's bound table. The graph walk can only yield
// call extractions: MiningGraph drops every edge touching an instruction
// that cannot be outlined (terminators, lr traffic, barriers), patterns
// grow along edges, and k >= 2 — so no mined occurrence ever includes a
// block terminator and buildCandidate always lands on MethodCall. The
// benefit-directed walk therefore bounds with CallBenefit alone, which
// is strictly tighter than fragUB (CrossJumpBenefit exceeds CallBenefit
// by k+1-m, so support-2 and -3 subtrees that only a tail merge could
// redeem are cut). Cross-jump candidates are untouched: they come
// exclusively from the ScanSequences seeds, which bypass the walk. The
// Lexicographic reference arm keeps the legacy fragUB bound — pruning
// strictly below EITHER admissible bound preserves the final incumbent
// tie set, so the two arms still return identical candidates.
func newSearch(maxK int, lexicographic bool) *search {
	s := &search{maxK: maxK, ub: make([]int, (maxK-1)*ubTabM), bound: CallBenefit}
	if lexicographic {
		s.bound = fragUB
	}
	for k := 2; k <= maxK; k++ {
		row := s.ub[(k-2)*ubTabM:]
		for m := 0; m < ubTabM; m++ {
			row[m] = s.bound(k, m)
		}
	}
	return s
}

// ubm is the memoised walk bound.
func (s *search) ubm(k, m int) int {
	if k >= 2 && k <= s.maxK && m >= 0 && m < ubTabM {
		return s.ub[(k-2)*ubTabM+m]
	}
	return s.bound(k, m)
}

// admit offers a mined candidate to the incumbent: a strictly better
// benefit resets the tie set, an equal one joins it, a worse one is
// dropped. Duplicates are allowed — the merge dedupes by canonical key.
func (s *search) admit(c *Candidate) {
	if c.Benefit > s.bestBen {
		s.bestBen = c.Benefit
		s.ties = s.ties[:0]
	}
	if c.Benefit == s.bestBen {
		s.ties = append(s.ties, c)
	}
	if s.ck != nil {
		s.ck.noteAdd()
	}
}

// GraphMiner is graph-based PA: DgSpan when Embedding is false (support =
// number of blocks containing the fragment, one extraction per block),
// Edgar when true (support = maximum set of non-overlapping embeddings,
// all of them extracted).
type GraphMiner struct {
	Embedding bool
	// CanonicalMatch enables the paper's future-work fuzzy matching: node
	// labels keep only the mnemonic and operand shapes (Fig. 13), so
	// register renamings of a fragment unify. Extraction remains strict:
	// only occurrences that are textually identical to the first are
	// rewritten, so the transformation stays sound while the search
	// generalises.
	CanonicalMatch bool
}

// Name implements Miner.
func (m *GraphMiner) Name() string {
	if m.Embedding {
		if m.CanonicalMatch {
			return "edgar-canon"
		}
		return "edgar"
	}
	return "dgspan"
}

// MiningGraph converts a dependence graph into the miner's input form.
// Parallel dependence edges between the same instruction pair (e.g. a RAW
// plus a WAW through different registers) are merged into one edge whose
// label is the sorted bundle of dependence labels. This keeps the search
// lattice a simple-digraph lattice — far smaller than the multigraph one —
// and loses nothing: embeddings whose extra internal dependences differ
// would be rejected by the extraction-time induced-signature check anyway,
// so bundling just applies that filter during matching.
func MiningGraph(g *dfg.Graph, canonical bool) *mining.Graph {
	mg := &mining.Graph{ID: g.Block.ID, Labels: make([]string, g.N())}
	for i := 0; i < g.N(); i++ {
		if canonical {
			mg.Labels[i] = g.Block.Instrs[i].CanonicalKey()
		} else {
			mg.Labels[i] = g.NodeLabel(i)
		}
	}
	// PA-specific pruning (paper §3.5): the graph search only feeds call
	// extraction, so instructions that can never be outlined — barriers,
	// control transfers, lr traffic, or anything in a function whose lr
	// discipline forbids inserting calls — are permanently unextractable
	// here. Dropping their edges deletes those lattice branches before
	// the search starts. (Tail merging, the other mechanism, is a
	// suffix phenomenon: its candidates come from the sequence scan that
	// seeds every round, so nothing extractable is lost. The paper mined
	// these families too and paid hours of search for the "seldom"
	// cross jump, Fig. 12.)
	callable := CallSafe(g.Block.Fn)
	dead := func(i int) bool {
		return !callable || !arm.Abstractable(&g.Block.Instrs[i])
	}

	bundle := map[[2]int][]string{}
	var order [][2]int
	for _, e := range g.Edges {
		if dead(e.From) || dead(e.To) {
			continue
		}
		k := [2]int{e.From, e.To}
		if _, ok := bundle[k]; !ok {
			order = append(order, k)
		}
		bundle[k] = append(bundle[k], e.Label())
	}
	for _, k := range order {
		labels := bundle[k]
		sort.Strings(labels)
		mg.Edges = append(mg.Edges, mining.GEdge{From: k[0], To: k[1], Label: strings.Join(labels, "+")})
	}
	mg.Freeze()
	return mg
}

// FindCandidates implements Miner.
func (m *GraphMiner) FindCandidates(view *cfg.Program, graphs []*dfg.Graph, opts Options) []*Candidate {
	inc := opts.inc
	byID := map[int]*dfg.Graph{}
	var mgs []*mining.Graph
	var newMG map[*dfg.Graph]mgEntry
	var safeByGraph map[*dfg.Graph]bool
	if inc != nil {
		newMG = make(map[*dfg.Graph]mgEntry, len(graphs))
		safeByGraph = make(map[*dfg.Graph]bool, len(graphs))
	}
	// The call-safety cache is written lazily on miss; fill it completely
	// in the loop below — every occurrence's function owns one of these
	// graphs' blocks — and it stays read-only for the rest of the round.
	safe := callSafeCache{}
	for _, g := range graphs {
		byID[g.Block.ID] = g
		callable := safe.get(g.Block.Fn)
		var mg *mining.Graph
		if inc != nil {
			safeByGraph[g] = callable
			if e, ok := inc.mg[g]; ok && e.callable == callable {
				// The dependence graph object and the call-safety flag baked
				// into the mining graph's edge pruning are both unchanged, so
				// the mining graph is too — only the block ID may have
				// shifted under renumbering. Copy the frozen graph and
				// restamp the ID.
				cp := *e.mg
				cp.ID = g.Block.ID
				mg = &cp
			}
		}
		if mg == nil {
			mg = MiningGraph(g, m.CanonicalMatch)
		}
		if inc != nil {
			newMG[g] = mgEntry{mg: mg, callable: callable}
		}
		mgs = append(mgs, mg)
	}
	if inc != nil {
		inc.mg = newMG
	}
	maxK := opts.maxNodes()
	// Warm-start the incumbent — branch-and-bound with an initial
	// heuristic solution — from the order-invariant sequence seeds. With
	// unbounded fragment size the graph search strictly subsumes the
	// sequence scan; under the fragment-size cap, seeding restores that
	// subsumption (DgSpan sees at most one occurrence per block,
	// consistent with its graph-count support). The seeds feed the merged
	// return list too, so the driver's runner-up supply does not depend
	// on visit order.
	seeds := ScanSequences(graphs, opts, !m.Embedding)
	baseFloor := 0
	for _, c := range seeds {
		if c.Benefit > baseFloor {
			baseFloor = c.Benefit
		}
	}
	ctx := opts.Context()
	s := newSearch(maxK, opts.Lexicographic)
	if inc != nil {
		s.ck = &checkpointer{s: s, memo: inc.memo, byID: byID, safe: safeByGraph}
	}
	s.bestBen = baseFloor
	// Benefit-bound pruning: a subtree is cut only when NO descendant can
	// match the incumbent (strictly less — ties must survive, they are
	// the mined output). Each bound comparison is recorded into the open
	// checkpoint records (checkpoint.go). A cancelled run prunes
	// everything without noting: the driver discards the candidate list
	// and the run's whole incremental state, so collapsing the walk is
	// the fastest sound exit.
	bound := func(p *mining.Pattern) int {
		if m.Embedding {
			return p.Support // the exact independent-set size
		}
		if !opts.Lexicographic && s.lastSelFor == p {
			// The visit that just ran computed the exact independent set;
			// bound with the real extraction count. Part of the MIS-aware
			// tightening, so the legacy reference arm skips it.
			return s.lastSelN
		}
		// DgSpan's Support is a graph count, which does NOT bound the
		// occurrence count; the embedding count does (a descendant's
		// disjoint embeddings restrict to distinct parent rows).
		return p.Embeddings.Len()
	}
	// below reports whether u cannot reach the incumbent, noting the
	// comparison.
	below := func(u int) bool {
		pruned := u < s.bestBen
		if s.ck != nil {
			s.ck.noteBest(u, pruned)
		}
		return pruned
	}
	prune := func(p *mining.Pattern) bool {
		if ctx.Err() != nil {
			return true
		}
		return below(s.ubm(maxK, bound(p)))
	}
	// Extension groups whose raw candidate count cannot yield a pattern
	// matching the incumbent are dropped before their embeddings are
	// built.
	viable := func(count int) bool { return !below(s.ubm(maxK, count)) }
	// pruneChild is the tightened between-siblings bound of the
	// benefit-directed walk: the mining layer hands it each child's
	// misUpperBound (admissible for the whole subtree), computed anyway
	// for the sibling ordering.
	pruneChild := func(set *mining.EmbSet, bound int) bool { return below(s.ubm(maxK, bound)) }
	cfgm := mining.Config{
		MinSupport:       opts.minSupport(),
		MaxNodes:         maxK,
		EmbeddingSupport: m.Embedding,
		GreedyMIS:        opts.GreedyMIS,
		MaxPatterns:      opts.maxPatterns(),
		Lexicographic:    opts.Lexicographic,
		PruneSubtree:     prune,
		ViableCount:      viable,
		NoteNonMinimal: func(n int) {
			if opts.stat != nil {
				opts.stat.NonMinimal = n
			}
		},
	}
	if !opts.Lexicographic {
		// The Lexicographic reference arm keeps the old-style walk — the
		// legacy fragUB support bound (newSearch), subtree and group
		// pruning only — so the A/B differentials contrast the full
		// benefit-directed machinery (call-only bound, MIS-aware child
		// pruning, sibling ordering) against the reference, not just the
		// sibling permutation. Result identity holds regardless: both
		// arms prune strictly below an admissible bound, which preserves
		// the final incumbent tie set (see the search doc).
		cfgm.PruneChild = pruneChild
	}
	if s.ck != nil {
		cfgm.Checkpoint = s.ck
	}
	visits := mining.Mine(mgs, cfgm, func(p *mining.Pattern) { m.visitPattern(s, byID, safe, opts, p) })
	if opts.stat != nil {
		opts.stat.Visits = visits
	}
	if s.ck != nil && inc.stat != nil {
		inc.stat.MemoHits += s.ck.hits
		inc.stat.VisitsSaved += s.ck.saved
	}
	return mergeCandidates(opts.batch(), s.ties, seeds)
}

// candKey is a canonical identity for a candidate: extraction method,
// fragment size, and each occurrence's block ID plus full DFS index
// sequence, with unambiguous separators. Two candidates with equal keys
// specify identical rewrites, so the merge below may keep either.
func candKey(c *Candidate) string {
	n := 16
	for i := range c.Occs {
		n += 8 + 4*len(c.Occs[i].DFS)
	}
	b := make([]byte, 0, n)
	b = append(b, c.Method.String()...)
	b = append(b, '#')
	b = strconv.AppendInt(b, int64(c.Size), 10)
	for i := range c.Occs {
		o := &c.Occs[i]
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(o.Block.ID), 10)
		b = append(b, ':')
		for j, d := range o.DFS {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(d), 10)
		}
	}
	return string(b)
}

// mergeCandidates builds FindCandidates' return list from the mined tie
// set and the sequence seeds: sort by descending benefit with the
// canonical key as tie-break, drop key duplicates, truncate to the
// driver's batch size. Every input is an order-invariant set and the
// comparator is total on distinct rewrites, so the returned list is
// identical whatever order the walk produced the ties in — the keystone
// of the lexicographic/benefit-directed Result identity.
func mergeCandidates(limit int, mined, seeds []*Candidate) []*Candidate {
	all := make([]*Candidate, 0, len(mined)+len(seeds))
	all = append(all, mined...)
	all = append(all, seeds...)
	if len(all) == 0 {
		return nil
	}
	keys := make(map[*Candidate]string, len(all))
	for _, c := range all {
		keys[c] = candKey(c)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Benefit != all[j].Benefit {
			return all[i].Benefit > all[j].Benefit
		}
		return keys[all[i]] < keys[all[j]]
	})
	out := all[:0]
	for i, c := range all {
		if i > 0 && keys[c] == keys[all[i-1]] {
			continue
		}
		out = append(out, c)
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// visitPattern is the per-pattern visitor: it gates by optimistic
// benefit, resolves the extraction-ready embedding set, and admits
// validated candidates into the incumbent list. Every visit computes
// live: checkpoint replay skips whole subtrees (checkpoint.go) and
// carries nothing into a pattern it does visit.
func (m *GraphMiner) visitPattern(s *search, byID map[int]*dfg.Graph, safe callSafeCache, opts Options, p *mining.Pattern) {
	// noteBest records comparisons against the incumbent benefit for the
	// checkpoint records (no-op without one). EVERY threshold-dependent
	// decision notes, including trivially-passing ones: a record's
	// validity region must pin each comparison, or a later round with a
	// different incumbent could replay a walk that would have decided
	// differently. Everything else in this visitor is a pure function of
	// the pattern. less reports v < best.
	noteBest := func(v int, less bool) {
		if s.ck != nil {
			s.ck.noteBest(v, less)
		}
	}
	k := p.Code.NumNodes()
	if k < 2 {
		return
	}
	// Cheap gate before any independent-set work: the raw embedding
	// count bounds every support notion from above. Strict comparison:
	// a candidate tying the incumbent is part of the mined output.
	ubRaw := s.ubm(k, p.Embeddings.Len())
	if ubRaw <= 0 {
		return
	}
	best := s.bestBen
	if ubRaw < best {
		noteBest(ubRaw, true)
		return
	}
	noteBest(ubRaw, false)
	sel := p.Disjoint
	if !m.Embedding {
		// DgSpan's frequency is graph-count (that is p.Support here),
		// but extraction still outlines every non-overlapping
		// occurrence of the chosen fragment — the paper's miners
		// share one extraction back end (§2.1 phase 8); only the
		// DETECTION differs (§4.2: repeats within one block "remain
		// unnoticed", i.e. fragments frequent only there are never
		// found).
		sel = mining.DisjointIndices(p.Embeddings, mining.Config{GreedyMIS: opts.GreedyMIS})
		// Stash the exact extraction count for the subtree prune that
		// follows this visit: DgSpan's Support is a graph count, useless
		// as an occurrence bound, but this independent set is exact.
		s.lastSelFor, s.lastSelN = p, len(sel)
	}
	ub := s.ubm(k, len(sel))
	if ub <= 0 {
		return
	}
	if ub < best {
		noteBest(ub, true)
		return
	}
	noteBest(ub, false)
	cand := m.buildCandidate(byID, p.Embeddings, sel, k, safe, best-1, noteBest, &s.conv)
	if cand == nil {
		return
	}
	s.admit(cand)
}

// buildCandidate turns raw disjoint embeddings into a verified candidate,
// choosing the extraction method per the paper: fragments that include a
// block terminator are tail-merged, everything else is outlined. minBen
// is the benefit the candidate must beat to be useful; validation bails
// out as soon as that becomes impossible. Per occurrence of a k-node
// fragment, validation costs one induced signature — O(k²·d_in) over the
// fragment's in-edges, independent of the block's edge count — plus the
// schedulability probe (convexScratch.admit), which reuses one scratch
// for the whole call: a block's first occurrence takes the convexity
// walk over block nodes below the fragment's last instruction, a later
// one the contraction probe, a Kahn count over the block window spanned
// by that block's occurrences — no trial schedule is built. note,
// when non-nil, receives the terminal threshold comparison that decided
// the outcome (checkpoint recording): occurrence filtering is
// threshold-independent, so the result is cand exactly when its benefit
// beats minBen — one comparison pins the outcome for a whole threshold
// region.
func (m *GraphMiner) buildCandidate(byID map[int]*dfg.Graph, set *mining.EmbSet, sel []int32, k int, safe callSafeCache, minBen int, note func(v int, le bool), conv *convexScratch) *Candidate {
	if len(sel) == 0 {
		return nil
	}
	first := byID[set.GID(int(sel[0]))]
	firstOcc := conv.scratchOcc(first, set.Nodes(int(sel[0])))
	hasTerm := containsTerminator(first, firstOcc.Nodes)

	// Embeddings must agree on their full induced dependence structure
	// (and instruction texts) to share one extracted body; keep only
	// those matching the first.
	conv.setReference(&firstOcc)

	benefit := func(m int) int {
		if hasTerm {
			return CrossJumpBenefit(k, m)
		}
		return CallBenefit(k, m)
	}

	// Occurrences are checked in scratch and copied out only once they
	// pass the extractability and signature checks; the kept ones
	// collect in scratch too, and the candidate gets an exact-size copy.
	occs := conv.occs[:0]
	defer func() { clear(occs); conv.occs = occs[:0] }()
	blFrags := map[*cfg.Block][][]int{}
	for i, row := range sel {
		// Bail as soon as even accepting every remaining embedding
		// cannot beat minBen. (The bound only shrinks and stays >= the
		// final benefit, so for any threshold at or above this value the
		// outcome is nil too — the single note covers the whole bail.)
		if v := benefit(len(occs) + len(sel) - i); v <= minBen {
			if note != nil {
				note(v, true)
			}
			return nil
		}
		g := byID[set.GID(int(row))]
		occ := conv.scratchOcc(g, set.Nodes(int(row)))
		if hasTerm {
			if !crossJumpExtractable(g, occ.Nodes) {
				continue
			}
		} else {
			if !callExtractable(g, occ.Nodes, safe) {
				continue
			}
		}
		if !conv.sameSignature(&occ) {
			continue
		}
		occ = ownedOcc(occ)
		if !hasTerm && !conv.admit(blFrags, &occ) {
			continue
		}
		occs = append(occs, occ)
	}
	b := benefit(len(occs))
	if len(occs) < 2 || b <= 0 {
		// Threshold-independent rejection (minBen is never negative), so
		// nothing to note.
		return nil
	}
	if note != nil {
		note(b, b <= minBen)
	}
	if b <= minBen {
		return nil
	}
	return &Candidate{Size: k, Occs: slices.Clone(occs), Method: methodOf(hasTerm), Benefit: b}
}

func methodOf(hasTerm bool) Method {
	if hasTerm {
		return MethodCrossJump
	}
	return MethodCall
}
