package pa_test

import (
	"testing"

	"graphpa/internal/bench"
	"graphpa/internal/pa"
)

// TestMiningGraphSkipsTerminators pins the invariant that makes the
// lattice walk call-only: on every benchmark's round-1 graphs, in both
// label modes, no mining-graph edge touches the block's terminator. Mined
// patterns grow along edges from k >= 2, so no mined occurrence holds a
// terminator and buildCandidate never needs a tail-merge arm.
func TestMiningGraphSkipsTerminators(t *testing.T) {
	for _, name := range bench.Names {
		w, err := bench.Build(name, bench.DefaultCodegen())
		if err != nil {
			t.Fatal(err)
		}
		terms := 0
		for _, g := range w.Graphs() {
			if g.Block.Terminator() == nil {
				continue
			}
			terms++
			last := len(g.Block.Instrs) - 1
			for _, canonical := range []bool{false, true} {
				for _, e := range pa.MiningGraph(g, canonical).Edges {
					if e.From == last || e.To == last {
						t.Fatalf("%s block %d (canonical=%v): mining edge %d->%d touches terminator %s",
							name, g.Block.ID, canonical, e.From, e.To, g.Block.Terminator())
					}
				}
			}
		}
		if terms == 0 {
			t.Fatalf("%s: no block ends in a terminator", name)
		}
	}
}
