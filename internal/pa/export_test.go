package pa

import (
	"cmp"
	"slices"
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

// Rebuild returns opts with the rebuild-every-round reference driver
// selected (Options.ref).
func Rebuild(opts Options) Options {
	opts.ref.rebuild = true
	return opts
}

// ScanBothSorts runs the sequence scan of every window length over
// graphs twice: with scanLen's own window sort and with a stable sort by
// hash alone, the reference order. It returns each run's candidates,
// rendered as benefit and key, in order.
func ScanBothSorts(graphs []*dfg.Graph, graphSupport bool) (got, want []string) {
	seqs, maxLen := tokenSeqs(graphs)
	maxLen = min(maxLen, Options{}.MaxSeqLenOrDefault())
	render := func(cands []*Candidate) (out []string) {
		for _, c := range cands {
			out = append(out, strconv.Itoa(c.Benefit)+" "+candKey(c))
		}
		return out
	}
	for k := 2; k <= maxLen; k++ {
		wins := hashWindows(seqs, k)
		ref := slices.Clone(wins)
		slices.SortStableFunc(ref, func(a, b window) int { return cmp.Compare(a.h, b.h) })
		sortWindows(wins)
		got = append(got, render(windowCandidates(graphs, seqs, wins, k, graphSupport))...)
		want = append(want, render(windowCandidates(graphs, seqs, ref, k, graphSupport))...)
	}
	return got, want
}
