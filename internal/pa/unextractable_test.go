package pa_test

import (
	"testing"

	"graphpa/internal/arm"
	"graphpa/internal/bench"
	"graphpa/internal/dfg"
	"graphpa/internal/mining"
	"graphpa/internal/pa"
)

// TestClosedRowsAreUnextractable is the soundness check of the walk's
// unextractable-fragment prune. On every benchmark's round-1 graphs, in
// both label modes, it walks the lattice without any pruning, in
// lexicographic order under a small budget, and requires every
// embedding row the closed-row predicate calls closed to fail
// buildCandidate's per-occurrence checks (callExtractable, or admit alone
// in its block). Every verdict must also match a reference hull walked
// node by node over the dependence graph's edges. Both verdicts must
// occur, or the check proves nothing.
func TestClosedRowsAreUnextractable(t *testing.T) {
	const maxK, budget = 8, 1500
	nClosed, nOpen := 0, 0
	for _, name := range bench.Names {
		w, err := bench.Build(name, bench.DefaultCodegen())
		if err != nil {
			t.Fatal(err)
		}
		graphs := w.Graphs()
		byID := map[int]*dfg.Graph{}
		for _, g := range graphs {
			byID[g.Block.ID] = g
		}
		closed := pa.RowClosed(graphs, maxK)
		for _, canonical := range []bool{false, true} {
			mgs := make([]*mining.Graph, len(graphs))
			for i, g := range graphs {
				mgs[i] = pa.MiningGraph(g, canonical)
			}
			cfg := mining.Config{MinSupport: 2, MaxNodes: maxK, EmbeddingSupport: true, Lexicographic: true, MaxPatterns: budget}
			mining.Mine(mgs, cfg, func(p *mining.Pattern) {
				set := p.Embeddings
				for i := 0; i < set.Len(); i++ {
					g, nodes := byID[set.GID(i)], set.Nodes(i)
					c := closed(set.GID(i), nodes)
					if want := referenceClosed(g, nodes, maxK); c != want {
						t.Fatalf("%s (canonical=%v): block %d row %v closed = %v, reference hull says %v",
							name, canonical, g.Block.ID, nodes, c, want)
					}
					if !c {
						nOpen++
						continue
					}
					nClosed++
					if pa.RowExtractable(g, nodes) {
						t.Fatalf("%s (canonical=%v): block %d row %v is closed but passes the extraction checks",
							name, canonical, g.Block.ID, nodes)
					}
				}
			})
		}
	}
	t.Logf("%d closed rows, %d open", nClosed, nOpen)
	if nClosed == 0 || nOpen == 0 {
		t.Errorf("%d closed and %d open rows; want both", nClosed, nOpen)
	}
}

// referenceClosed is the closed-row definition walked directly: the
// hull is every node both reachable from a row node and reaching one,
// over dependence-graph edges.
func referenceClosed(g *dfg.Graph, nodes []int32, maxK int) bool {
	if !pa.CallSafe(g.Block.Fn) {
		return true
	}
	walk := func(next func(int) []int) map[int]bool {
		seen := map[int]bool{}
		var stack []int
		for _, v := range nodes {
			seen[int(v)] = true
			stack = append(stack, int(v))
		}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range next(v) {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		return seen
	}
	down, up := walk(g.Succs), walk(g.Preds)
	size := 0
	for v := range down {
		if !up[v] {
			continue
		}
		if !arm.Abstractable(&g.Block.Instrs[v]) {
			return true
		}
		size++
	}
	return size > maxK
}
