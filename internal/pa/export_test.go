package pa

import (
	"cmp"
	"slices"
	"strconv"

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
