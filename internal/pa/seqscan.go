package pa

import (
	"cmp"
	"slices"
	"time"

	"graphpa/internal/arm"
	"graphpa/internal/dfg"
)

const (
	hashBase = 1099511628211

	// maxSeqCandidates is how many candidates ScanSequences returns.
	maxSeqCandidates = 64
)

// pos locates a sequence occurrence: graph index and start offset.
type pos struct{ g, start int }

// ScanSequences finds repeated contiguous instruction sequences with
// positive extraction benefit, best first — the suffix-trie baseline's
// detector (Fraser/Myers/Wendt; fingerprint-filtered per Debray et al.).
// The graph miners also call it to seed their branch-and-bound incumbent
// list: with unbounded fragment size graph mining strictly subsumes
// sequence mining, and seeding restores that subsumption under our
// fragment-size cap. With graphSupport, a sequence must repeat across at
// least two blocks (DgSpan's graph-count view).
//
// It returns the maxSeqCandidates best candidates by (benefit desc,
// generation asc), where the generation order is (length asc, window
// hash asc, first occurrence in scan order) — the order a per-length
// scan produces them in. Its cost follows the repeats, not the block
// lengths: scanGroups extends only windows that still repeat, and
// seqScan.best builds candidates best-first under the top-64 bar
// (DESIGN.md §15). The round's opts.stat receives the scan's wall time
// and its candidate builds.
func ScanSequences(graphs []*dfg.Graph, opts Options, graphSupport bool) []*Candidate {
	t0 := time.Now()
	sc := &seqScan{graphs: graphs, graphSupport: graphSupport, safe: callSafeCache{}, nonAbs: make([][]int32, len(graphs))}
	scanGroups(tokenSeqs(graphs), opts.MaxSeqLenOrDefault(), sc.addGroup)
	out := sc.best()
	if opts.stat != nil {
		opts.stat.Scan = time.Since(t0)
		opts.stat.SeqBuilds = sc.builds
	}
	return out
}

// tokenSeqs interns the graphs' instruction texts into token ids, per
// round, and returns each graph's token sequence.
func tokenSeqs(graphs []*dfg.Graph) [][]uint64 {
	tokens := map[string]uint64{}
	next := uint64(1)
	seqs := make([][]uint64, len(graphs))
	for gi, g := range graphs {
		n := g.N()
		seq := make([]uint64, n)
		for i := 0; i < n; i++ {
			s := g.NodeLabel(i)
			id, ok := tokens[s]
			if !ok {
				id = next
				next++
				tokens[s] = id
			}
			seq[i] = id
		}
		seqs[gi] = seq
	}
	return seqs
}

// tokGroup is one token-equal group of length-k windows: the rolling
// hash h = Σ tok_j·hashBase^(k−1−j) mod 2⁶⁴ of its k tokens, and its
// members, mem[at:at+n] of its level's member arena, in scan order,
// (graph, start) ascending.
type tokGroup struct {
	h     uint64
	at, n int
}

// tokPos is one member of a group being split, with its next token.
type tokPos struct {
	tok uint64
	p   pos
}

// scanGroups calls visit for every token-equal group of at least two
// length-k windows, for k from 2 to maxLen, in generation order: k
// ascending, then window hash ascending, then first member in scan
// order; each group's members are in scan order. members is reused
// after visit returns.
//
// Only windows that still repeat are looked at. A length-k window
// repeats only if its length-(k−1) prefix does, so the length-k groups
// are the length-(k−1) groups split by their members' k-th token (see
// splitGroups), starting from one group of every position at length 0.
// Groups are split by token, never by hash, so a 64-bit hash collision
// only orders two groups, by first member, as a full per-length scan
// does. The scan stops when no group is left.
func scanGroups(seqs [][]uint64, maxLen int, visit func(k int, members []pos)) {
	var mem, nextMem []pos
	for gi, seq := range seqs {
		for i := range seq {
			mem = append(mem, pos{gi, i})
		}
	}
	groups, next := []tokGroup{{n: len(mem)}}, []tokGroup(nil)
	var buf []tokPos
	for k := 1; k <= maxLen && len(groups) > 0; k++ {
		next, nextMem, buf = splitGroups(seqs, groups, mem, k, next[:0], nextMem[:0], buf)
		groups, next, mem, nextMem = next, groups, nextMem, mem
		if k < 2 {
			continue
		}
		for _, g := range groups {
			visit(k, mem[g.at:g.at+g.n:g.at+g.n])
		}
	}
}

// splitGroups extends the length-(k−1) groups to length k, appending
// them to out and their members to outMem: each group's members are
// split by their k-th token, and every token-equal part of at least two
// members becomes a group with hash h·hashBase + token, its members in
// scan order. A member whose window would run past its sequence drops
// out. The new groups are sorted by hash, then first member (sortGroups).
// buf is scratch, returned for reuse.
func splitGroups(seqs [][]uint64, groups []tokGroup, mem []pos, k int, out []tokGroup, outMem []pos, buf []tokPos) ([]tokGroup, []pos, []tokPos) {
	for _, g := range groups {
		buf = buf[:0]
		for _, p := range mem[g.at : g.at+g.n] {
			if seq := seqs[p.g]; p.start+k <= len(seq) {
				buf = append(buf, tokPos{seq[p.start+k-1], p})
			}
		}
		// Sorting by (token, graph, start) leaves each token's members
		// in scan order.
		slices.SortFunc(buf, func(a, b tokPos) int {
			if c := cmp.Compare(a.tok, b.tok); c != 0 {
				return c
			}
			return comparePos(a.p, b.p)
		})
		for lo, hi := 0, 0; lo < len(buf); lo = hi {
			for hi = lo + 1; hi < len(buf) && buf[hi].tok == buf[lo].tok; hi++ {
			}
			if hi-lo < 2 {
				continue
			}
			out = append(out, tokGroup{h: g.h*hashBase + buf[lo].tok, at: len(outMem), n: hi - lo})
			for _, x := range buf[lo:hi] {
				outMem = append(outMem, x.p)
			}
		}
	}
	sortGroups(out, outMem)
	return out, outMem, buf
}

// sortGroups orders one level's groups by hash, then first member.
// Distinct groups differ in tokens, so only a hash collision reaches the
// member compare, and distinct groups have distinct first members: the
// order is total.
func sortGroups(groups []tokGroup, mem []pos) {
	slices.SortFunc(groups, func(a, b tokGroup) int {
		if c := cmp.Compare(a.h, b.h); c != 0 {
			return c
		}
		return comparePos(mem[a.at], mem[b.at])
	})
}

// comparePos orders positions in scan order: graph, then start.
func comparePos(a, b pos) int {
	if c := cmp.Compare(a.g, b.g); c != 0 {
		return c
	}
	return cmp.Compare(a.start, b.start)
}

// seqScan is one ScanSequences call's state: the groups scanGroups
// found, each with its overlap-resolved occurrences and an admissible
// bound on its candidate's benefit.
type seqScan struct {
	graphs       []*dfg.Graph
	graphSupport bool
	safe         callSafeCache
	conv         convexScratch

	groups []seqGroup
	chosen []pos     // every group's occurrences, back to back
	nonAbs [][]int32 // per graph, filled on first use: non-abstractable instructions before each index
	gens   int       // groups generated so far
	builds int       // seqCandidate calls (RoundStat.SeqBuilds)
}

// seqGroup is one group of non-overlapping occurrences of a length-k
// sequence: sc.chosen[at:at+n].
type seqGroup struct {
	k, at, n int
	gen      int // generation index: the group's place in the per-length scan order
	bound    int // admissible: at least the benefit of its candidate
}

// addGroup is scanGroups' visitor. It resolves overlaps greedily left to
// right, applies the graph-count filter and keeps the group if its bound
// is positive: seqCandidate returns nil for every group it drops.
func (sc *seqScan) addGroup(k int, members []pos) {
	gen := sc.gens
	sc.gens++
	at := len(sc.chosen)
	blocks, lastG, lastEnd := 0, -1, 0
	for _, p := range members {
		if p.g == lastG && p.start < lastEnd {
			continue
		}
		if p.g != lastG {
			blocks++
		}
		sc.chosen = append(sc.chosen, p)
		lastG, lastEnd = p.g, p.start+k
	}
	if sc.graphSupport && blocks < 2 {
		// graph-count frequency: the sequence must repeat across at
		// least two blocks to be "frequent" for DgSpan, even though all
		// its occurrences are then extracted.
		sc.chosen = sc.chosen[:at]
		return
	}
	chosen := sc.chosen[at:]
	if b := sc.bound(chosen, k); b > 0 {
		sc.groups = append(sc.groups, seqGroup{k: k, at: at, n: len(chosen), gen: gen, bound: b})
		return
	}
	sc.chosen = sc.chosen[:at]
}

// bound is the benefit of chosen's candidate if every occurrence that
// passes seqCandidate's cheap tests is kept, and 0 when fewer than two
// do. The first occurrence fixes the method. A tail merge keeps only
// occurrences that end at an unconditional terminator; a call keeps only
// those that do not, in a call-safe function, and made of abstractable
// instructions. The contraction and signature tests can only drop more,
// and both benefits grow with the occurrence count, so the bound is
// admissible.
func (sc *seqScan) bound(chosen []pos, k int) int {
	tail := endsAtTerm(sc.graphs[chosen[0].g], chosen[0].start, k)
	m := 0
	for _, p := range chosen {
		g := sc.graphs[p.g]
		if tail {
			if endsAtTerm(g, p.start, k) {
				m++
			}
		} else if !endsAtTerm(g, p.start, k) && sc.safe.get(g.Block.Fn) && sc.abstractable(p, k) {
			m++
		}
	}
	if m < 2 {
		return 0
	}
	if tail {
		return CrossJumpBenefit(k, m)
	}
	return CallBenefit(k, m)
}

// endsAtTerm reports whether the length-k window at start ends with
// g's unconditional terminator (containsTerminator of the window).
func endsAtTerm(g *dfg.Graph, start, k int) bool {
	term := g.Block.Terminator()
	return start+k == g.N() && term != nil && term.IsTerminator()
}

// abstractable reports whether every instruction of the length-k window
// at p is arm.Abstractable, from per-graph prefix counts.
func (sc *seqScan) abstractable(p pos, k int) bool {
	pre := sc.nonAbs[p.g]
	if pre == nil {
		instrs := sc.graphs[p.g].Block.Instrs
		pre = make([]int32, len(instrs)+1)
		for i := range instrs {
			pre[i+1] = pre[i]
			if !arm.Abstractable(&instrs[i]) {
				pre[i+1]++
			}
		}
		sc.nonAbs[p.g] = pre
	}
	return pre[p.start+k] == pre[p.start]
}

// best builds the groups' candidates best-first and returns the top
// maxSeqCandidates by (benefit desc, gen asc): the first
// maxSeqCandidates of the generation-ordered candidates stably sorted by
// benefit.
//
// Groups are built in (bound desc, gen asc) order, and the kept list
// holds the best candidates built so far. Once it is full, the build
// stops at the first group whose (bound, gen) sorts after the last kept
// entry's (benefit, gen). Every later group's (bound, gen) sorts after
// it too, and a candidate's (benefit, gen) sorts at or after its
// group's (bound, gen), since benefit ≤ bound: no unbuilt candidate
// could enter the list. A built candidate left out sorted after a full
// list, whose last entry only moves forward. Gens are distinct, so the
// order is total, and the kept list is the top maxSeqCandidates of all
// candidates.
func (sc *seqScan) best() []*Candidate {
	slices.SortFunc(sc.groups, func(a, b seqGroup) int {
		if c := cmp.Compare(b.bound, a.bound); c != 0 {
			return c
		}
		return cmp.Compare(a.gen, b.gen)
	})
	type kept struct {
		c   *Candidate
		gen int
	}
	// after reports whether (ben, gen) sorts after kept entry x.
	after := func(ben, gen int, x kept) bool {
		return ben < x.c.Benefit || ben == x.c.Benefit && gen > x.gen
	}
	var top []kept
	for _, gr := range sc.groups {
		if len(top) == maxSeqCandidates && after(gr.bound, gr.gen, top[len(top)-1]) {
			break
		}
		sc.builds++
		c := seqCandidate(sc.graphs, sc.chosen[gr.at:gr.at+gr.n], gr.k, sc.safe, &sc.conv)
		if c == nil {
			continue
		}
		i := len(top)
		for i > 0 && !after(c.Benefit, gr.gen, top[i-1]) {
			i--
		}
		if i == maxSeqCandidates {
			continue
		}
		if len(top) == maxSeqCandidates {
			top = top[:len(top)-1]
		}
		top = slices.Insert(top, i, kept{c, gr.gen})
	}
	out := make([]*Candidate, len(top))
	for i, x := range top {
		out[i] = x.c
	}
	return out
}

// seqCandidate validates occurrences and picks the extraction method:
// sequences ending in the block terminator tail-merge, others outline.
// Every occurrence must match the first's induced signature, which is
// encoded into conv's scratch, like buildCandidate's.
func seqCandidate(graphs []*dfg.Graph, chosen []pos, k int, safe callSafeCache, conv *convexScratch) *Candidate {
	if len(chosen) < 2 {
		return nil
	}
	first := graphs[chosen[0].g]
	firstOcc := conv.seqOcc(first, chosen[0].start, k)
	conv.setReference(&firstOcc)
	tail := endsAtTerm(first, chosen[0].start, k)

	var occs []Occurrence
	for _, p := range chosen {
		g := graphs[p.g]
		occ := conv.seqOcc(g, p.start, k)
		if tail {
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
		occs = append(occs, ownedOcc(occ))
	}
	if len(occs) < 2 {
		return nil
	}
	if tail {
		benefit := CrossJumpBenefit(k, len(occs))
		if benefit <= 0 {
			return nil
		}
		return &Candidate{Size: k, Occs: occs, Method: MethodCrossJump, Benefit: benefit}
	}
	benefit := CallBenefit(k, len(occs))
	if benefit <= 0 {
		return nil
	}
	return &Candidate{Size: k, Occs: occs, Method: MethodCall, Benefit: benefit}
}
