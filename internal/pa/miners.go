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
// the legacy walk bound, kept for the lexicographic reference arm; the
// benefit-directed walk bounds with CallBenefit alone (see newSearch).
func fragUB(k, m int) int {
	ub := CallBenefit(k, m)
	if cb := CrossJumpBenefit(k, m); cb > ub {
		ub = cb
	}
	return ub
}

// search is the state of one lattice walk: the scalar incumbent read by
// the branch-and-bound policies and raised by the visitor, and its ties.
//
// The incumbent is deliberately a single scalar plus its tie set, not a
// list ranked by benefit. With admissible bounds and strictly-less pruning
// (UB < bestBen), every candidate whose benefit equals the final maximum
// survives under ANY sibling visit order: each of its ancestors has an
// upper bound at least that maximum, which never drops below the
// incumbent. The final (bestBen, ties-as-a-set) is therefore identical
// between the lexicographic and benefit-directed walks, and
// mergeCandidates, the one place that ranks, dedups and truncates, turns
// that set into the same list whatever order the walk admitted it in —
// the property the Result-identity guarantee rests on. A ranked runner-up
// list has no such invariance (which sub-maximum candidates get built
// depends on when the bound rises), so runners-up come from the
// order-invariant sequence seeds instead (see FindCandidates).
type search struct {
	bestBen int          // incumbent: highest known admissible benefit (seed floor at start)
	ties    []*Candidate // the mined candidates at bestBen, in admission order

	// lexicographic selects the legacy fragUB walk bound of the
	// lexicographic reference arm (see newSearch).
	lexicographic bool

	// conv is the occurrence-validation scratch, kept for the whole
	// walk.
	conv convexScratch
}

// newSearch starts a walk. Its bound is CallBenefit: the graph walk can
// only yield call extractions. MiningGraph drops every edge touching an
// instruction that cannot be outlined (terminators, lr traffic,
// barriers), patterns grow along edges, and k >= 2 — so no mined
// occurrence ever includes a block terminator and buildCandidate always
// lands on MethodCall. CallBenefit is strictly tighter than fragUB
// (CrossJumpBenefit exceeds CallBenefit by k+1-m, so support-2 and -3
// subtrees that only a tail merge could redeem are cut). Cross-jump
// candidates are untouched: they come exclusively from the ScanSequences
// seeds, which bypass the walk. The lexicographic reference arm keeps
// the legacy fragUB bound — pruning strictly below EITHER admissible
// bound preserves the final incumbent tie set, so the two arms still
// return identical candidates.
func newSearch(lexicographic bool) *search {
	return &search{lexicographic: lexicographic}
}

// ubm is the walk bound: the optimistic benefit of a k-node fragment
// with at most m occurrences.
func (s *search) ubm(k, m int) int {
	if s.lexicographic {
		return fragUB(k, m)
	}
	return CallBenefit(k, m)
}

// admit offers a mined candidate to the incumbent: a strictly better
// benefit restarts the tie list, an equal one joins it, a worse one is
// dropped.
func (s *search) admit(c *Candidate) {
	if c.Benefit < s.bestBen {
		return
	}
	if c.Benefit > s.bestBen {
		s.bestBen = c.Benefit
		s.ties = s.ties[:0]
	}
	s.ties = append(s.ties, c)
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
// so bundling just applies that filter during matching. It also makes
// every one-edge root an induced subgraph, which the embedding-support
// walk needs: that walk grows induced node sets (mining.Config's
// EmbeddingSupport), so each pattern it visits is one node set's whole
// dependence structure, the structure buildCandidate checks.
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
	return m.findCandidates(graphs, opts, nil)
}

// findCandidates is FindCandidates with a tap the walk calls on every
// visited pattern after the visitor, when tap is non-nil: the hook of
// the footprint probe and the tie-set oracle tests.
func (m *GraphMiner) findCandidates(graphs []*dfg.Graph, opts Options, tap func(*mining.Pattern)) []*Candidate {
	byID := map[int]*dfg.Graph{}
	var mgs []*mining.Graph
	// The call-safety cache is written lazily on miss; fill it completely
	// in the loop below — every occurrence's function owns one of these
	// graphs' blocks — and it stays read-only for the rest of the round.
	safe := callSafeCache{}
	for _, g := range graphs {
		byID[g.Block.ID] = g
		mgs = append(mgs, opts.inc.miningGraph(g, safe.get(g.Block.Fn), m.CanonicalMatch))
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
	s := newSearch(opts.ref.lexicographic)
	s.bestBen = baseFloor
	// Benefit-bound pruning: a subtree is cut only when NO descendant can
	// match the incumbent (strictly less — ties must survive, they are
	// the mined output). A cancelled run prunes everything: the driver
	// discards the candidate list and the run's whole incremental state,
	// so collapsing the walk is the fastest sound exit.
	bound := func(p *mining.Pattern) int {
		if m.Embedding {
			return p.Support // the exact independent-set size
		}
		// DgSpan's Support is a graph count, which does NOT bound the
		// occurrence count; the embedding count does (a descendant's
		// disjoint embeddings restrict to distinct parent rows).
		return p.Embeddings.Len()
	}
	// below reports whether u cannot reach the incumbent.
	below := func(u int) bool { return u < s.bestBen }
	prune := func(p *mining.Pattern) bool {
		if ctx.Err() != nil {
			return true
		}
		return below(s.ubm(maxK, bound(p)))
	}
	// Extension groups whose raw candidate count cannot yield a pattern
	// matching the incumbent are dropped before their embeddings are
	// built. The benefit-directed walk asks again before each child
	// descent with the child's misUpperBound (admissible for the whole
	// subtree, computed anyway for the sibling ordering): the tightened
	// between-siblings bound.
	viable := func(count int) bool { return !below(s.ubm(maxK, count)) }
	cfgm := mining.Config{
		MinSupport:       opts.minSupport(),
		MaxNodes:         maxK,
		EmbeddingSupport: m.Embedding,
		GreedyMIS:        opts.GreedyMIS,
		MaxPatterns:      opts.maxPatterns(),
		Lexicographic:    opts.ref.lexicographic,
		PruneSubtree:     prune,
		ViableCount:      viable,
		NoteCounts: func(c mining.WalkCounts) {
			if opts.stat != nil {
				opts.stat.NonMinimal, opts.stat.Unextractable = c.NonMinimal, c.Unextractable
			}
		},
	}
	if !opts.ref.lexicographic {
		// The lexicographic reference arm keeps the old-style walk — the
		// legacy fragUB support bound (newSearch), subtree and group
		// pruning only (a lexicographic walk bounds no child) — so the
		// A/B differentials contrast the full benefit-directed machinery
		// (call-only bound, MIS-aware child pruning, sibling ordering)
		// against the reference, not just the sibling permutation. Result identity holds regardless: both
		// arms prune strictly below an admissible bound, which preserves
		// the final incumbent tie set (see the search doc). It is also
		// the unpruned oracle of the unextractable-fragment cut (hull.go):
		// without the predicate every row is open.
		cfgm.RowClosed = newHulls(graphs, safe, maxK).closed
	}
	visits := mining.Mine(mgs, cfgm, func(p *mining.Pattern) {
		m.visitPattern(s, byID, safe, opts, p)
		if tap != nil {
			tap(p)
		}
	})
	if opts.stat != nil {
		opts.stat.Visits = visits
		opts.stat.Ties = len(s.ties)
		opts.stat.Truncated = visits >= opts.maxPatterns()
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
// validated candidates into the incumbent list.
func (m *GraphMiner) visitPattern(s *search, byID map[int]*dfg.Graph, safe callSafeCache, opts Options, p *mining.Pattern) {
	k := p.Code.NumNodes()
	if k < 2 {
		return
	}
	// Cheap gate before any independent-set work: the raw embedding
	// count bounds every support notion from above. Strict comparison:
	// a candidate tying the incumbent is part of the mined output.
	ubRaw := s.ubm(k, p.Embeddings.Len())
	best := s.bestBen
	if ubRaw <= 0 || ubRaw < best {
		return
	}
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
	}
	ub := s.ubm(k, len(sel))
	if ub <= 0 || ub < best {
		return
	}
	// A closed row fails callExtractable or admit (hull.go), so with no
	// open row selected buildCandidate would return nil.
	if !slices.ContainsFunc(sel, func(r int32) bool { return !p.Embeddings.Closed(int(r)) }) {
		return
	}
	if cand := m.buildCandidate(byID, p.Embeddings, sel, k, safe, best-1, &s.conv); cand != nil {
		s.admit(cand)
	}
}

// buildCandidate turns raw disjoint embeddings into a verified call
// candidate. The walk never yields a tail merge: no mined occurrence
// holds a block terminator (see newSearch), so cross jumps come only
// from the sequence seeds. minBen is the benefit the candidate must beat
// to be useful; validation bails out as soon as that becomes impossible.
// Per occurrence of a k-node fragment, validation costs one induced
// signature — O(k²·d_in) over the fragment's in-edges, independent of
// the block's edge count — plus the schedulability probe
// (convexScratch.admit), which reuses one scratch for the whole call: a
// block's first occurrence takes the convexity walk over block nodes
// below the fragment's last instruction, a later one the contraction
// probe, a Kahn count over the block window spanned by that block's
// occurrences — no trial schedule is built.
func (m *GraphMiner) buildCandidate(byID map[int]*dfg.Graph, set *mining.EmbSet, sel []int32, k int, safe callSafeCache, minBen int, conv *convexScratch) *Candidate {
	if len(sel) == 0 {
		return nil
	}
	first := byID[set.GID(int(sel[0]))]
	firstOcc := conv.scratchOcc(first, set.Nodes(int(sel[0])))

	// Embeddings must agree on their full induced dependence structure
	// (and instruction texts) to share one extracted body; keep only
	// those matching the first.
	conv.setReference(&firstOcc)

	// Occurrences are checked in scratch and copied out only once they
	// pass the extractability and signature checks; the kept ones
	// collect in scratch too, and the candidate gets an exact-size copy.
	occs := conv.occs[:0]
	defer func() { clear(occs); conv.occs = occs[:0] }()
	blFrags := map[*cfg.Block][][]int{}
	for i, row := range sel {
		// Bail as soon as even accepting every remaining embedding
		// cannot beat minBen.
		if CallBenefit(k, len(occs)+len(sel)-i) <= minBen {
			return nil
		}
		g := byID[set.GID(int(row))]
		occ := conv.scratchOcc(g, set.Nodes(int(row)))
		// Row sel[0] is the reference: its signature matches itself.
		if !callExtractable(g, occ.Nodes, safe) || (i > 0 && !conv.sameSignature(&occ)) {
			continue
		}
		occ = ownedOcc(occ)
		if !conv.admit(blFrags, &occ) {
			continue
		}
		occs = append(occs, occ)
	}
	b := CallBenefit(k, len(occs))
	if len(occs) < 2 || b <= 0 || b <= minBen {
		return nil
	}
	return &Candidate{Size: k, Occs: slices.Clone(occs), Method: MethodCall, Benefit: b}
}
