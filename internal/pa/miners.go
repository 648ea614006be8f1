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

// ubTabM is the embedding-count range covered by the search's
// precomputed fragUB table (satellite of the benefit-directed walk:
// fragUB is pure, so the hot policies index a flat table instead of
// recomputing the two benefit polynomials per comparison).
const ubTabM = 2048

// search is the state of one lattice walk: the scalar incumbent read by
// the branch-and-bound policies and raised by the visitor, and the
// ranking of its ties by rewrite key.
//
// The incumbent is deliberately a single scalar plus its tie set, not a
// list ranked by benefit. With admissible bounds and strictly-less pruning
// (UB < bestBen), every candidate whose benefit equals the final maximum
// survives under ANY sibling visit order: each of its ancestors has an
// upper bound at least that maximum, which never drops below the
// incumbent. The final (bestBen, ties-as-a-set) is therefore identical
// between the lexicographic and benefit-directed walks — the property
// the Result-identity guarantee rests on. A ranked runner-up list has no
// such invariance (which sub-maximum candidates get built depends on
// when the bound rises), so runners-up come from the order-invariant
// sequence seeds instead (see FindCandidates).
//
// Of the tie set only the first limit keys can reach the driver:
// mergeCandidates orders by (benefit desc, key asc), dedups by key and
// keeps limit entries. So ties holds just those — the smallest limit
// distinct keys at bestBen, over the mined candidates and the sequence
// seeds at the floor — and that set does not depend on admission order
// either. Once the ranking is full its last key is the bar: a candidate
// that can at most tie and whose key sorts at or after the bar is a
// duplicate or outside the batch, and buildCandidate stops building it.
type search struct {
	bestBen int   // incumbent: highest known admissible benefit (seed floor at start)
	ties    []tie // the smallest distinct keys at bestBen: ascending once limit are held
	limit   int   // the driver's batch: the most keys ties holds
	keyCuts int   // builds the bar stopped (RoundStat.KeyCuts)

	// seen holds ties' keys while the ranking is not full. Until then
	// every distinct key is kept, so ties is appended unsorted and
	// sorted once, when it fills or when mined reads it: a Batch larger
	// than the tie set costs no per-admission insertion.
	seen map[string]struct{}

	// ub is the walk-bound memo: ub[(k-2)*ubTabM+m] is the optimistic
	// benefit of a k-node fragment with at most m occurrences, for k in
	// [2, maxK], m in [0, ubTabM). Built once per run (CallBenefit for
	// the benefit-directed walk, legacy fragUB for the lexicographic
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

// tie is one ranked rewrite key at the incumbent benefit and the mined
// candidate it names, nil for a sequence seed: the seeds reach
// mergeCandidates on their own, and rank here only to set the bar.
type tie struct {
	key  string
	cand *Candidate
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
// lexicographic reference arm keeps the legacy fragUB bound — pruning
// strictly below EITHER admissible bound preserves the final incumbent
// tie set, so the two arms still return identical candidates. limit is
// the driver's batch size, the most ties the search ranks.
func newSearch(maxK int, lexicographic bool, limit int) *search {
	s := &search{maxK: maxK, limit: limit, ub: make([]int, (maxK-1)*ubTabM), bound: CallBenefit}
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

// seed ranks the sequence seeds at the incumbent (the floor they set)
// as key-only ties.
func (s *search) seed(seeds []*Candidate) {
	for _, c := range seeds {
		if c.Benefit == s.bestBen {
			s.rank(candKey(c), nil)
		}
	}
}

// admit offers a mined candidate with rewrite key key to the incumbent:
// a strictly better benefit resets the ranking, an equal one is ranked,
// a worse one is dropped.
func (s *search) admit(c *Candidate, key string) {
	if c.Benefit < s.bestBen {
		return
	}
	if c.Benefit > s.bestBen {
		s.bestBen = c.Benefit
		s.ties = s.ties[:0]
		clear(s.seen)
	}
	s.rank(key, c)
}

// rank adds key to the ranking unless it is already there or sorts
// after limit smaller keys; a full ranking drops its last key to make
// room.
func (s *search) rank(key string, c *Candidate) {
	if len(s.ties) < s.limit {
		if s.seen == nil {
			s.seen = map[string]struct{}{}
		}
		if _, dup := s.seen[key]; dup {
			return
		}
		s.seen[key] = struct{}{}
		s.ties = append(s.ties, tie{key: key, cand: c})
		if len(s.ties) == s.limit {
			s.sortTies()
		}
		return
	}
	i, found := slices.BinarySearchFunc(s.ties, key, func(t tie, k string) int {
		return strings.Compare(t.key, k)
	})
	if found || i >= s.limit {
		return
	}
	s.ties = slices.Insert(s.ties[:len(s.ties)-1], i, tie{key: key, cand: c})
}

// sortTies puts the ranking in key order.
func (s *search) sortTies() {
	slices.SortFunc(s.ties, func(a, b tie) int { return strings.Compare(a.key, b.key) })
}

// bar is the last ranked key once the ranking is full, and "" (no bar)
// before: a tie whose key sorts at or after it cannot reach the batch.
func (s *search) bar() string {
	if len(s.ties) < s.limit {
		return ""
	}
	return s.ties[len(s.ties)-1].key
}

// mined returns the ranked mined candidates in key order.
func (s *search) mined() []*Candidate {
	if len(s.ties) < s.limit {
		s.sortTies()
	}
	var out []*Candidate
	for _, t := range s.ties {
		if t.cand != nil {
			out = append(out, t.cand)
		}
	}
	return out
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
	return m.findCandidates(graphs, opts, nil)
}

// findCandidates is FindCandidates with a tap the walk calls on every
// visited pattern after the visitor, with the walk's search, when tap is
// non-nil: the hook of the tie-ranking differential test.
func (m *GraphMiner) findCandidates(graphs []*dfg.Graph, opts Options, tap func(*search, *mining.Pattern)) []*Candidate {
	inc := opts.inc
	byID := map[int]*dfg.Graph{}
	var mgs []*mining.Graph
	var newMG map[*dfg.Graph]mgEntry
	if inc != nil {
		newMG = make(map[*dfg.Graph]mgEntry, len(graphs))
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
	s := newSearch(maxK, opts.ref.lexicographic, opts.batch())
	s.bestBen = baseFloor
	s.seed(seeds)
	// Benefit-bound pruning: a subtree is cut only when NO descendant can
	// match the incumbent (strictly less — ties must survive, they are
	// the mined output). A cancelled run prunes everything: the driver
	// discards the candidate list and the run's whole incremental state,
	// so collapsing the walk is the fastest sound exit.
	bound := func(p *mining.Pattern) int {
		if m.Embedding {
			return p.Support // the exact independent-set size
		}
		if !opts.ref.lexicographic && s.lastSelFor == p {
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
		// pruning only — so the A/B differentials contrast the full
		// benefit-directed machinery (call-only bound, MIS-aware child
		// pruning, sibling ordering) against the reference, not just the
		// sibling permutation. Result identity holds regardless: both
		// arms prune strictly below an admissible bound, which preserves
		// the final incumbent tie set (see the search doc). It is also
		// the unpruned oracle of the unextractable-fragment cut (hull.go):
		// without the predicate every row is open.
		cfgm.PruneChild = pruneChild
		cfgm.RowClosed = newHulls(graphs, safe, maxK).closed
	}
	visits := mining.Mine(mgs, cfgm, func(p *mining.Pattern) {
		m.visitPattern(s, byID, safe, opts, p)
		if tap != nil {
			tap(s, p)
		}
	})
	if opts.stat != nil {
		opts.stat.Visits = visits
		opts.stat.KeyCuts = s.keyCuts
		opts.stat.Truncated = visits >= opts.maxPatterns()
	}
	return mergeCandidates(opts.batch(), s.mined(), seeds)
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
	b := appendKeyHead(make([]byte, 0, n), c.Method, c.Size)
	for i := range c.Occs {
		b = appendOccKey(b, &c.Occs[i])
	}
	return string(b)
}

// appendKeyHead appends the start of a candidate key, method and size,
// to b. With appendOccKey it is the one key encoder: candKey and
// buildCandidate's growing key prefix both use it, so a prefix is
// always a prefix of the final key.
func appendKeyHead(b []byte, m Method, size int) []byte {
	b = append(b, m.String()...)
	b = append(b, '#')
	return strconv.AppendInt(b, int64(size), 10)
}

// appendOccKey appends one occurrence's part of a candidate key to b.
func appendOccKey(b []byte, o *Occurrence) []byte {
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(o.Block.ID), 10)
	b = append(b, ':')
	for j, d := range o.DFS {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(d), 10)
	}
	return b
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
		// Stash the exact extraction count for the subtree prune that
		// follows this visit: DgSpan's Support is a graph count, useless
		// as an occurrence bound, but this independent set is exact.
		s.lastSelFor, s.lastSelN = p, len(sel)
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
	// A candidate that can at most tie the incumbent reaches the driver
	// only if its key ranks in the batch, so its build stops at the bar.
	// One that could raise the incumbent is always built in full.
	bar := ""
	if CallBenefit(k, len(sel)) <= best {
		bar = s.bar()
	}
	cand, cut := m.buildCandidate(byID, p.Embeddings, sel, k, safe, best-1, bar, &s.conv)
	if cut {
		s.keyCuts++
	}
	if cand == nil {
		return
	}
	s.admit(cand, string(s.conv.key))
}

// buildCandidate turns raw disjoint embeddings into a verified call
// candidate, leaving its rewrite key in conv.key. The walk never yields
// a tail merge: no mined occurrence holds a block terminator (see
// newSearch), so cross jumps come only from the sequence seeds. minBen
// is the benefit the candidate must beat to be useful; validation bails
// out as soon as that becomes impossible. A non-empty bar is a key the
// candidate's own must sort before to be of use: that key grows by one
// occurrence's part per kept occurrence, and a prefix never sorts after
// the key it extends, so once the prefix reaches the bar the build stops
// and reports cut.
// Per occurrence of a k-node fragment, validation costs one induced
// signature — O(k²·d_in) over the fragment's in-edges, independent of
// the block's edge count — plus the schedulability probe
// (convexScratch.admit), which reuses one scratch for the whole call: a
// block's first occurrence takes the convexity walk over block nodes
// below the fragment's last instruction, a later one the contraction
// probe, a Kahn count over the block window spanned by that block's
// occurrences — no trial schedule is built.
func (m *GraphMiner) buildCandidate(byID map[int]*dfg.Graph, set *mining.EmbSet, sel []int32, k int, safe callSafeCache, minBen int, bar string, conv *convexScratch) (c *Candidate, cut bool) {
	if len(sel) == 0 {
		return nil, false
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
	key := appendKeyHead(conv.key[:0], MethodCall, k)
	defer func() { clear(occs); conv.occs, conv.key = occs[:0], key }()
	blFrags := map[*cfg.Block][][]int{}
	for i, row := range sel {
		// Bail as soon as even accepting every remaining embedding
		// cannot beat minBen.
		if CallBenefit(k, len(occs)+len(sel)-i) <= minBen {
			return nil, false
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
		key = appendOccKey(key, &occ)
		if bar != "" && string(key) >= bar {
			return nil, true
		}
	}
	b := CallBenefit(k, len(occs))
	if len(occs) < 2 || b <= 0 || b <= minBen {
		return nil, false
	}
	return &Candidate{Size: k, Occs: slices.Clone(occs), Method: MethodCall, Benefit: b}, false
}
