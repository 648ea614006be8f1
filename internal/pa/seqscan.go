package pa

import (
	"cmp"
	"slices"
	"sort"

	"graphpa/internal/dfg"
)

const (
	hashBase = 1099511628211
)

// pos locates a sequence occurrence: graph index and start offset.
type pos struct{ g, start int }

// ScanSequences finds repeated contiguous instruction sequences with
// positive extraction benefit, best first — the suffix-trie baseline's
// detector (Fraser/Myers/Wendt; fingerprint-filtered per Debray et al.).
// The graph miners also call it to seed their branch-and-bound incumbent
// list: with unbounded fragment size graph mining strictly subsumes
// sequence mining, and seeding restores that subsumption under our
// fragment-size cap. With onePerBlock, at most one occurrence per basic
// block is counted (DgSpan's graph-count view).
func ScanSequences(graphs []*dfg.Graph, opts Options, graphSupport bool) []*Candidate {
	seqs, maxLen := tokenSeqs(graphs)
	if maxLen > opts.MaxSeqLenOrDefault() {
		maxLen = opts.MaxSeqLenOrDefault()
	}

	var all []*Candidate
	for k := 2; k <= maxLen; k++ {
		all = append(all, scanLen(graphs, seqs, k, graphSupport)...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Benefit > all[j].Benefit })
	if len(all) > 64 {
		all = all[:64]
	}
	return all
}

// tokenSeqs interns the graphs' instruction texts into token ids, per
// round, and returns each graph's token sequence and the longest length
// (at least 2).
func tokenSeqs(graphs []*dfg.Graph) (seqs [][]uint64, maxLen int) {
	tokens := map[string]uint64{}
	next := uint64(1)
	seqs = make([][]uint64, len(graphs))
	maxLen = 2
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
		if n > maxLen {
			maxLen = n
		}
	}
	return seqs, maxLen
}

// window is one length-k token window with its rolling hash.
type window struct {
	h uint64
	p pos
}

// scanLen finds the positive-benefit candidates of one sequence length:
// rolling-hash grouping, collision verification, greedy left-to-right
// overlap resolution, method selection. Pure over its inputs.
func scanLen(graphs []*dfg.Graph, seqs [][]uint64, k int, graphSupport bool) []*Candidate {
	wins := hashWindows(seqs, k)
	sortWindows(wins)
	return windowCandidates(graphs, seqs, wins, k, graphSupport)
}

// hashWindows returns every length-k window with its rolling hash, in
// (g, start) order.
func hashWindows(seqs [][]uint64, k int) []window {
	n := 0
	for _, seq := range seqs {
		n += max(len(seq)-k+1, 0)
	}
	wins := make([]window, 0, n)
	pow := uint64(1)
	for i := 0; i < k-1; i++ {
		pow *= hashBase
	}
	for gi, seq := range seqs {
		if len(seq) < k {
			continue
		}
		var h uint64
		for i := 0; i+k <= len(seq); i++ {
			if i == 0 {
				h = 0
				for j := 0; j < k; j++ {
					h = h*hashBase + seq[j]
				}
			} else {
				h = (h-seq[i-1]*pow)*hashBase + seq[i+k-1]
			}
			wins = append(wins, window{h, pos{gi, i}})
		}
	}
	return wins
}

// sortWindows sorts hashWindows' output by hash, so that equal-hash runs
// are the hash groups in ascending hash order, each in scan order. The
// windows arrive in (g, start) order, so sorting by (h, g, start) gives
// the stable sort by hash without its merge passes.
func sortWindows(wins []window) {
	slices.SortFunc(wins, func(a, b window) int {
		if c := cmp.Compare(a.h, b.h); c != 0 {
			return c
		}
		if c := cmp.Compare(a.p.g, b.p.g); c != 0 {
			return c
		}
		return cmp.Compare(a.p.start, b.p.start)
	})
}

// windowCandidates is scanLen's candidate pass over the sorted windows.
func windowCandidates(graphs []*dfg.Graph, seqs [][]uint64, wins []window, k int, graphSupport bool) []*Candidate {
	var out []*Candidate
	safe := callSafeCache{}
	for lo, hi := 0, 0; lo < len(wins); lo = hi {
		for hi = lo + 1; hi < len(wins) && wins[hi].h == wins[lo].h; hi++ {
		}
		if hi-lo < 2 {
			continue
		}
		ps := wins[lo:hi]
		// Verify against hash collisions: group by actual tokens.
		ref := seqs[ps[0].p.g][ps[0].p.start : ps[0].p.start+k]
		var same []pos
		for _, w := range ps {
			if equalSeq(seqs[w.p.g][w.p.start:w.p.start+k], ref) {
				same = append(same, w.p)
			}
		}
		if len(same) < 2 {
			continue
		}
		// Non-overlapping occurrences, greedy left to right.
		var chosen []pos
		lastEnd := map[int]int{}
		for _, p := range same {
			if e, ok := lastEnd[p.g]; ok && p.start < e {
				continue
			}
			chosen = append(chosen, p)
			lastEnd[p.g] = p.start + k
		}
		if graphSupport && len(lastEnd) < 2 {
			// graph-count frequency: the sequence must repeat across
			// at least two blocks to be "frequent" for DgSpan, even
			// though all its occurrences are then extracted.
			continue
		}
		cand := seqCandidate(graphs, chosen, k, safe)
		if cand == nil {
			continue
		}
		out = append(out, cand)
	}
	return out
}

func equalSeq(a, b []uint64) bool {
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

// seqCandidate validates occurrences and picks the extraction method:
// sequences ending in the block terminator tail-merge, others outline.
// safe memoises CallSafe across one scanLen call.
func seqCandidate(graphs []*dfg.Graph, chosen []pos, k int, safe callSafeCache) *Candidate {
	if len(chosen) < 2 {
		return nil
	}
	mkNodes := func(start int) []int {
		nodes := make([]int, k)
		for i := range nodes {
			nodes[i] = start + i
		}
		return nodes
	}
	first := graphs[chosen[0].g]
	firstNodes := mkNodes(chosen[0].start)
	firstOcc := Occurrence{Block: first.Block, Graph: first, Nodes: firstNodes, DFS: firstNodes}
	reference := firstOcc.InducedSignature()

	term := first.Block.Terminator()
	endsAtTerm := chosen[0].start+k == first.N() && term != nil && term.IsTerminator()

	var occs []Occurrence
	for _, p := range chosen {
		g := graphs[p.g]
		occ := Occurrence{Block: g.Block, Graph: g, Nodes: mkNodes(p.start), DFS: mkNodes(p.start)}
		if endsAtTerm {
			if !crossJumpExtractable(g, occ.Nodes) {
				continue
			}
		} else {
			if !callExtractable(g, occ.Nodes, safe) {
				continue
			}
		}
		if occ.InducedSignature() != reference {
			continue
		}
		occs = append(occs, occ)
	}
	if len(occs) < 2 {
		return nil
	}
	if endsAtTerm {
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
