package mining

import (
	"fmt"
	"slices"
	"sort"
	"testing"
)

// parentMiner returns a miner holding what the walk holds when it
// expands code: code's step sets, recorded by the full test, and its
// prefix state.
func parentMiner(code Code) *miner {
	mn := &miner{}
	rec := make([]*EmbSet, len(code))
	for i := range rec {
		rec[i] = new(EmbSet)
	}
	if !mn.isMinimal(code, rec) {
		panic(fmt.Sprintf("parentMiner: %s is not a minimal code", code))
	}
	mn.steps = rec
	mn.pre.load(&mn.sc, code)
	return mn
}

// TestChildMinimalFallback drives the fallback of the incremental test
// — the new edge reads equal to a tuple of the parent before the last
// step — to both verdicts, on hand-built children.
func TestChildMinimalFallback(t *testing.T) {
	tu := func(i, j int, li string, out bool, le, lj string) Tuple {
		return Tuple{I: i, J: j, LI: li, LJ: lj, Out: out, LE: le}
	}
	aa := Code{tu(0, 1, "a", true, "x", "a")}
	abc := Code{tu(0, 1, "a", true, "x", "b"), tu(1, 2, "b", true, "y", "c")}
	cases := []struct {
		name   string
		parent Code
		t      Tuple
		want   bool
	}{
		{
			// a→a→a: the new edge, read from node 1, equals c[0]; the
			// path's code is still minimal.
			"step0/minimal",
			aa, tu(1, 2, "a", true, "x", "a"), true,
		},
		{
			// a←a→a grown from the right edge: read from node 2 the new
			// edge equals c[0], and the code grown from it reads the
			// old edge as (1,2,a,>,x,a), below the child's c[1].
			"step0/non-minimal",
			aa, tu(0, 2, "a", false, "x", "a"), false,
		},
		{
			// a→b with two b→c edges: at step 1 the new edge equals
			// c[1] under the identity.
			"step1/minimal",
			abc, tu(1, 3, "b", true, "y", "c"), true,
		},
	}
	for _, tc := range cases {
		child := append(tc.parent[:len(tc.parent):len(tc.parent)], tc.t)
		if full := child.IsMinimal(); full != tc.want || oldIsMinimal(child) != tc.want {
			t.Fatalf("%s: fixture %s: IsMinimal %v, reference %v, want %v", tc.name, child, full, oldIsMinimal(child), tc.want)
		}
		mn := parentMiner(tc.parent)
		kid, ok := mn.childMinimal(tc.parent, &tc.t, nil)
		if ok != tc.want {
			t.Errorf("%s: childMinimal(%s) = %v, want %v", tc.name, child, ok, tc.want)
		}
		if mn.mini == nil {
			t.Errorf("%s: the test did not fall back to the full test", tc.name)
		}
		if !ok {
			if len(kid) != 0 || len(mn.stepFree) != len(child) {
				t.Errorf("%s: %d step sets returned, %d released; want 0 and %d", tc.name, len(kid), len(mn.stepFree), len(child))
			}
			continue
		}
		assertSteps(t, tc.name, child, kid)
	}
}

// assertSteps fails unless got holds code's step sets as the full test
// records them, rows in the same order.
func assertSteps(t *testing.T, name string, code Code, got []*EmbSet) {
	t.Helper()
	want := parentMiner(code).steps
	if len(got) != len(want) {
		t.Fatalf("%s: %s has %d step sets, want %d", name, code, len(got), len(want))
	}
	for j := range want {
		g, w := got[j], want[j]
		if g.k != w.k || g.e != w.e || !slices.Equal(g.gids, w.gids) || !slices.Equal(g.tup, w.tup) {
			t.Fatalf("%s: %s: step set %d has %d rows %v, the full test %d rows %v",
				name, code, j, got[j].n, got[j].tup, want[j].n, want[j].tup)
		}
	}
}

// TestChildMinimalStepSets walks the handwritten sets and random DAGs
// and checks, at every test the walk runs, that the verdict equals the
// full test's and, in the edge walk (graph-count support), that the
// walk's step sets for the parent are the ones the full test records, so
// the stack of sets survives descents, fallbacks and returns intact. The
// induced walk keeps no step sets; its node steps are held to the
// verdict alone.
func TestChildMinimalStepSets(t *testing.T) {
	sets := testGraphSets()
	for i, graphs := range randomDAGSets(7, 30) {
		sets[fmt.Sprintf("random%02d", i)] = graphs
	}
	names := make([]string, 0, len(sets))
	for name := range sets {
		names = append(names, name)
	}
	sort.Strings(names)
	verdicts := map[bool]int{}
	tests := 0
	childHook = func(mn *miner, code Code, step []Tuple, minimal bool) {
		tests++
		if !mn.cfg.EmbeddingSupport {
			if len(mn.steps) != len(code) {
				t.Fatalf("%s: the walk holds %d step sets", code, len(mn.steps))
			}
			assertSteps(t, "walk", code, mn.steps)
		}
		child := append(code[:len(code):len(code)], step...)
		if full := child.IsMinimal(); full != minimal {
			t.Fatalf("%s: walk verdict %v, IsMinimal %v", child, minimal, full)
		}
		verdicts[minimal]++
	}
	defer func() { childHook = nil }()
	for _, name := range names {
		for _, cfg := range []Config{
			{MinSupport: 1, MaxNodes: 5, MaxPatterns: 1000},
			{MinSupport: 2, MaxNodes: 6, MaxPatterns: 1000, Lexicographic: true},
			{MinSupport: 1, MaxNodes: 5, EmbeddingSupport: true, MaxPatterns: 1000},
		} {
			Mine(sets[name], cfg, func(*Pattern) {})
		}
	}
	t.Logf("%d tests, verdicts %v", tests, verdicts)
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("verdicts %v: both outcomes must be exercised", verdicts)
	}
}
