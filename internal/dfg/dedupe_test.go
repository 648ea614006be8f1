package dfg_test

import (
	"slices"
	"testing"

	"graphpa/internal/arm"
	"graphpa/internal/bench"
	"graphpa/internal/cfg"
	"graphpa/internal/dfg"
	"graphpa/internal/loader"
	"graphpa/internal/pa"
)

// mapEdges is Build's edge list as drawn with a block-wide set of the
// edges drawn so far, the reference for Build's scan of the current To
// run: the same clauses in the same order, each edge kept at its first
// drawing. It also returns the number of drawings it dropped as repeats.
func mapEdges(b *cfg.Block, calls map[string]arm.Effects) (edges []dfg.Edge, repeats int) {
	n := len(b.Instrs)
	lastWrite := map[arm.Reg]int{}
	readsSince := map[arm.Reg][]int{}
	lastStore := -1
	var loadsSince []int
	seen := map[dfg.Edge]bool{}
	addEdge := func(from, to int, kind dfg.DepKind, reg arm.Reg) {
		e := dfg.Edge{From: from, To: to, Kind: kind, Reg: reg}
		if from == to || from < 0 {
			return
		}
		if seen[e] {
			repeats++
			return
		}
		seen[e] = true
		edges = append(edges, e)
	}
	for i := 0; i < n; i++ {
		in := &b.Instrs[i]
		e := arm.EffectsOf(in)
		if in.Op == arm.BL {
			if s, ok := calls[in.Target]; ok {
				e = s
			}
		}
		for _, r := range e.Reads.Regs() {
			if w, ok := lastWrite[r]; ok {
				addEdge(w, i, dfg.RAW, r)
			}
		}
		for _, r := range e.Writes.Regs() {
			for _, rd := range readsSince[r] {
				addEdge(rd, i, dfg.WAR, r)
			}
			if w, ok := lastWrite[r]; ok {
				addEdge(w, i, dfg.WAW, r)
			}
		}
		if e.LoadsMem {
			addEdge(lastStore, i, dfg.MemRAW, arm.RegNone)
		}
		if e.StoresMem {
			for _, ld := range loadsSince {
				addEdge(ld, i, dfg.MemWAR, arm.RegNone)
			}
			addEdge(lastStore, i, dfg.MemWAW, arm.RegNone)
		}
		for _, r := range e.Writes.Regs() {
			lastWrite[r] = i
			readsSince[r] = nil
		}
		for _, r := range e.Reads.Regs() {
			readsSince[r] = append(readsSince[r], i)
		}
		if e.StoresMem {
			lastStore = i
			loadsSince = nil
		}
		if e.LoadsMem {
			loadsSince = append(loadsSince, i)
		}
	}
	if b.Terminator() != nil {
		t := n - 1
		hasOut := make([]bool, n)
		for _, e := range edges {
			hasOut[e.From] = true
		}
		for i := 0; i < t; i++ {
			if !hasOut[i] {
				addEdge(i, t, dfg.Ctl, arm.RegNone)
			}
		}
	}
	return edges, repeats
}

// TestBuildMatchesMapDedupe holds Build's duplicate check, a scan of
// the edges into the node being drawn, to the block-wide set it
// replaced: every block of the eight benchmark programs, compiled and
// after edgar's fixpoint (whose blocks call the extracted procedures,
// with their summaries), builds exactly the reference's edges, in order.
// The log line counts the drawings the reference dropped as repeats: 0
// on these blocks, where each clause draws into the node being drawn at
// most one edge per register or source node, so the check holds the
// clauses to that as much as it holds the scan to the set.
func TestBuildMatchesMapDedupe(t *testing.T) {
	blocks, repeats := 0, 0
	for _, name := range bench.Names {
		w, err := bench.Build(name, bench.DefaultCodegen())
		if err != nil {
			t.Fatal(err)
		}
		opt := pa.Optimize(w.Prog, &pa.GraphMiner{Embedding: true}, pa.Options{})
		for _, prog := range []*loader.Program{w.Prog, opt.Program} {
			view := cfg.Build(prog)
			calls := pa.CallSummaries(view)
			for _, b := range view.Blocks {
				want, r := mapEdges(b, calls)
				if got := dfg.Build(b, calls).Edges; !slices.Equal(got, want) {
					t.Fatalf("%s: block %d builds edges\n%v\nthe map dedupe builds\n%v", name, b.ID, got, want)
				}
				blocks++
				repeats += r
			}
		}
	}
	t.Logf("%d blocks, %d repeated drawings dropped", blocks, repeats)
}
