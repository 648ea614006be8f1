package pa

import (
	"testing"

	"graphpa/internal/asm"
	"graphpa/internal/cfg"
	"graphpa/internal/dfg"
)

// hullGraph builds the dependence graph of one block of fn, one
// instruction per line.
func hullGraph(t *testing.T, fn *cfg.Func, lines ...string) *dfg.Graph {
	t.Helper()
	b := &cfg.Block{Fn: fn}
	for _, l := range lines {
		u, err := asm.Parse(l)
		if err != nil {
			t.Fatalf("parse %q: %v", l, err)
		}
		b.Instrs = append(b.Instrs, u.Text...)
	}
	return dfg.Build(b, nil)
}

// TestRowClosedHandBuilt pins the closed-row predicate on hand-built
// blocks: a hull through a non-abstractable node the mining graph drops,
// a hull larger than MaxNodes, a row in a function that is not call
// safe, and a convex row, which is open. Every closed row must also fail
// buildCandidate's per-occurrence checks.
func TestRowClosedHandBuilt(t *testing.T) {
	safe := &cfg.Func{Name: "f", LRSaved: true}
	chain := []string{
		"mov r1, #1",     // 0
		"add r1, r1, #1", // 1
		"add r1, r1, #2", // 2
		"add r2, r1, #3", // 3
	}
	for _, tc := range []struct {
		name   string
		g      *dfg.Graph
		maxK   int
		nodes  []int32
		closed bool
	}{
		// The call reads r1 from 0 and writes the r1 that 2 reads. The
		// mining graph keeps no edge of the call, so only the dependence
		// graph sees the path 0 -> 1 -> 2.
		{"path through a call", hullGraph(t, safe,
			"mov r1, #1",     // 0
			"bl g",           // 1
			"add r2, r1, #2", // 2
		), 8, []int32{0, 2}, true},
		{"hull above MaxNodes", hullGraph(t, safe, chain...), 3, []int32{0, 3}, true},
		{"hull at MaxNodes, not convex", hullGraph(t, safe, chain...), 4, []int32{3, 0}, false},
		{"function not call safe", hullGraph(t, &cfg.Func{Name: "leaf"}, chain...), 8, []int32{0, 1}, true},
		{"convex row", hullGraph(t, safe, chain...), 2, []int32{1, 2}, false},
	} {
		closed := RowClosed([]*dfg.Graph{tc.g}, tc.maxK)(tc.g.Block.ID, tc.nodes)
		if closed != tc.closed {
			t.Errorf("%s: row %v closed = %v, want %v", tc.name, tc.nodes, closed, tc.closed)
		}
		if closed && RowExtractable(tc.g, tc.nodes) {
			t.Errorf("%s: closed row %v passes the extraction checks", tc.name, tc.nodes)
		}
	}
	if g := hullGraph(t, safe, chain...); !RowExtractable(g, []int32{1, 2}) {
		t.Error("the convex row fails the extraction checks")
	}
}
