package pa

import (
	"cmp"
	"slices"
	"sort"
	"strconv"

	"graphpa/internal/cfg"
	"graphpa/internal/dfg"
)

// Test-only hooks for the external pa_test suites, which reach the
// benchmark programs through internal/bench — an import cycle for
// in-package tests.

// CandKey is the merge's canonical candidate key (miners.go).
var CandKey = candKey

// Lexicographic returns opts with the lexicographic reference walk
// selected (Options.ref).
func Lexicographic(opts Options) Options {
	opts.ref.lexicographic = true
	return opts
}

// RowClosed returns the walk's closed-row predicate (hull.go) over one
// round's graphs, indexed by block ID.
func RowClosed(graphs []*dfg.Graph, maxNodes int) func(gid int, nodes []int32) bool {
	return newHulls(graphs, callSafeCache{}, maxNodes).closed
}

// RowExtractable reports whether one embedding row of g, alone in its
// block, passes buildCandidate's per-occurrence checks:
// callExtractable and convexScratch.admit.
func RowExtractable(g *dfg.Graph, nodes []int32) bool {
	var conv convexScratch
	occ := conv.scratchOcc(g, nodes)
	return callExtractable(g, occ.Nodes, callSafeCache{}) && conv.admit(map[*cfg.Block][][]int{}, &occ)
}

// WithBatch returns opts with the driver's batch (Options.ref) set to
// n.
func WithBatch(opts Options, n int) Options {
	opts.ref.batch = n
	return opts
}

// Rebuild returns opts with the rebuild-every-round reference driver
// selected (Options.ref).
func Rebuild(opts Options) Options {
	opts.ref.rebuild = true
	return opts
}

// The per-length full sequence scan, the oracle of ScanSequences:
// every window of every length is hashed, the windows are stably sorted
// by hash alone, and each hash run is split into token-equal subgroups
// by comparing tokens. Every group that passes the overlap and graph
// count filters is built, and the candidates are stably sorted by
// benefit and cut to maxSeqCandidates.

// window is one length-k token window with its rolling hash, as a full
// per-length scan sees it.
type window struct {
	h uint64
	p pos
}

// hashWindows returns every length-k window with its rolling hash, in
// (g, start) order.
func hashWindows(seqs [][]uint64, k int) []window {
	var wins []window
	pow := uint64(1)
	for i := 0; i < k-1; i++ {
		pow *= hashBase
	}
	for gi, seq := range seqs {
		var h uint64
		for i := 0; i+k <= len(seq); i++ {
			if i == 0 {
				for j := 0; j < k; j++ {
					h = h*hashBase + seq[j]
				}
			} else {
				h = (h-seq[i-1]*pow)*hashBase + seq[i+k-1]
			}
			wins = append(wins, window{h: h, p: pos{gi, i}})
		}
	}
	return wins
}

// fullScanGroups is scanGroups' oracle: the same groups in the same
// order, from a full scan of every length.
func fullScanGroups(seqs [][]uint64, maxLen int, visit func(k int, members []pos)) {
	for k := 2; k <= maxLen; k++ {
		wins := hashWindows(seqs, k)
		slices.SortStableFunc(wins, func(a, b window) int { return cmp.Compare(a.h, b.h) })
		tokenGroups(seqs, wins, k, visit)
	}
}

// tokenGroups visits the token-equal subgroups of at least two windows
// of each run of equal hashes in wins, in order of first member.
func tokenGroups(seqs [][]uint64, wins []window, k int, visit func(k int, members []pos)) {
	tokens := func(p pos) []uint64 { return seqs[p.g][p.start : p.start+k] }
	for lo, hi := 0, 0; lo < len(wins); lo = hi {
		for hi = lo + 1; hi < len(wins) && wins[hi].h == wins[lo].h; hi++ {
		}
		placed := make([]bool, hi-lo)
		for i := lo; i < hi; i++ {
			if placed[i-lo] {
				continue
			}
			var members []pos
			for j := i; j < hi; j++ {
				if !placed[j-lo] && slices.Equal(tokens(wins[j].p), tokens(wins[i].p)) {
					members = append(members, wins[j].p)
					placed[j-lo] = true
				}
			}
			if len(members) >= 2 {
				visit(k, members)
			}
		}
	}
}

// fullScan is ScanSequences' oracle. It returns the candidates and the
// number of groups it built.
func fullScan(graphs []*dfg.Graph, opts Options, graphSupport bool) ([]*Candidate, int) {
	var all []*Candidate
	builds := 0
	safe := callSafeCache{}
	var conv convexScratch
	fullScanGroups(tokenSeqs(graphs), opts.MaxSeqLenOrDefault(), func(k int, members []pos) {
		// Non-overlapping occurrences, greedy left to right.
		var chosen []pos
		lastEnd := map[int]int{}
		for _, p := range members {
			if e, ok := lastEnd[p.g]; ok && p.start < e {
				continue
			}
			chosen = append(chosen, p)
			lastEnd[p.g] = p.start + k
		}
		if graphSupport && len(lastEnd) < 2 {
			return
		}
		builds++
		if c := seqCandidate(graphs, chosen, k, safe, &conv); c != nil {
			all = append(all, c)
		}
	})
	sort.SliceStable(all, func(i, j int) bool { return all[i].Benefit > all[j].Benefit })
	return all[:min(len(all), maxSeqCandidates)], builds
}

// renderCands renders a candidate list as benefit and key per entry.
func renderCands(cands []*Candidate) []string {
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = strconv.Itoa(c.Benefit) + " " + candKey(c)
	}
	return out
}

// ScanAndOracle runs ScanSequences and its full-scan oracle over graphs.
// It returns each one's candidates, rendered as benefit and key, in
// order, with the scan's candidate builds (RoundStat.SeqBuilds) and the
// oracle's, which builds every group.
func ScanAndOracle(graphs []*dfg.Graph, opts Options, graphSupport bool) (got, want []string, builds, groups int) {
	var stat RoundStat
	opts.stat = &stat
	got = renderCands(ScanSequences(graphs, opts, graphSupport))
	cands, groups := fullScan(graphs, opts, graphSupport)
	return got, renderCands(cands), stat.SeqBuilds, groups
}

// renderGroup renders one group as "k:g.start,g.start,...".
func renderGroup(k int, members []pos) string {
	b := strconv.AppendInt(nil, int64(k), 10)
	for i, p := range members {
		if i == 0 {
			b = append(b, ':')
		} else {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(p.g), 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(p.start), 10)
	}
	return string(b)
}

// ScanGroups renders the groups scanGroups and its full-scan oracle find
// in seqs up to length maxLen, in order.
func ScanGroups(seqs [][]uint64, maxLen int) (got, want []string) {
	scanGroups(seqs, maxLen, func(k int, members []pos) { got = append(got, renderGroup(k, members)) })
	fullScanGroups(seqs, maxLen, func(k int, members []pos) { want = append(want, renderGroup(k, members)) })
	return got, want
}

// Window2 is a length-2 window at Start of sequence G, with a hash the
// caller chooses.
type Window2 struct {
	G, Start int
	H        uint64
}

// GroupHashed2 renders the length-2 groups that the scan's grouping and
// the oracle's each find among wins, in the order each puts them: with
// hand-set hashes a test can force collisions. The scan splits the
// windows' positions by token and gives each group its first window's
// hash before ordering the groups; the oracle runs each equal-hash run
// of the windows, sorted by hash, through its token compare.
func GroupHashed2(seqs [][]uint64, wins []Window2) (got, want []string) {
	ws := make([]window, len(wins))
	mem := make([]pos, len(wins))
	hash := map[pos]uint64{}
	for i, w := range wins {
		ws[i] = window{h: w.H, p: pos{w.G, w.Start}}
		mem[i] = ws[i].p
		hash[ws[i].p] = w.H
	}
	slices.SortFunc(ws, func(a, b window) int {
		if c := cmp.Compare(a.h, b.h); c != 0 {
			return c
		}
		return comparePos(a.p, b.p)
	})
	tokenGroups(seqs, ws, 2, func(k int, members []pos) { want = append(want, renderGroup(k, members)) })
	slices.SortFunc(mem, comparePos)
	groups, mem, buf := splitGroups(seqs, []tokGroup{{n: len(mem)}}, mem, 1, nil, nil, nil)
	groups, mem, _ = splitGroups(seqs, groups, mem, 2, nil, nil, buf)
	for i := range groups {
		groups[i].h = hash[mem[groups[i].at]]
	}
	sortGroups(groups, mem)
	for _, g := range groups {
		got = append(got, renderGroup(2, mem[g.at:g.at+g.n]))
	}
	return got, want
}
