package mining

import (
	"maps"
	"strconv"
	"testing"
)

// chain builds a directed path graph a->b->c... with the given node
// labels and a constant edge label.
func chain(id int, elabel string, labels ...string) *Graph {
	g := &Graph{ID: id, Labels: labels}
	for i := 0; i+1 < len(labels); i++ {
		g.Edges = append(g.Edges, GEdge{From: i, To: i + 1, Label: elabel})
	}
	g.Freeze()
	return g
}

func mineAll(t *testing.T, graphs []*Graph, cfg Config) []*Pattern {
	t.Helper()
	var out []*Pattern
	Mine(graphs, cfg, func(p *Pattern) {
		// Deep-copy identity fields we assert on.
		out = append(out, p)
	})
	return out
}

func TestCompareTuplesOrder(t *testing.T) {
	fwd01 := Tuple{I: 0, J: 1, LI: "a", LJ: "b", Out: true, LE: "e"}
	fwd12 := Tuple{I: 1, J: 2, LI: "b", LJ: "c", Out: true, LE: "e"}
	back20 := Tuple{I: 2, J: 0, LI: "c", LJ: "a", Out: true, LE: "e"}
	// Growing forward chain: earlier discovery is smaller.
	if compareTuples(&fwd01, &fwd12) >= 0 {
		t.Error("(0,1) must precede (1,2)")
	}
	// Backward from 2 precedes forward from 2 (i < j' rule with j'=3).
	fwd23 := Tuple{I: 2, J: 3, LI: "c", LJ: "d", Out: true, LE: "e"}
	if compareTuples(&back20, &fwd23) >= 0 {
		t.Error("backward (2,0) must precede forward (2,3)")
	}
	// Direction is tie-breaking: out before in.
	in01 := Tuple{I: 0, J: 1, LI: "a", LJ: "b", Out: false, LE: "e"}
	if compareTuples(&fwd01, &in01) >= 0 {
		t.Error("out-edge must sort before in-edge")
	}
	// Same position, label order decides.
	x := Tuple{I: 0, J: 1, LI: "a", LJ: "b", Out: true, LE: "f"}
	if compareTuples(&fwd01, &x) >= 0 {
		t.Error("edge label order broken")
	}
	if compareTuples(&fwd01, &fwd01) != 0 {
		t.Error("equal tuples must compare 0")
	}
}

func TestRightmostPath(t *testing.T) {
	code := Code{
		{I: 0, J: 1, LI: "a", LJ: "b", Out: true, LE: "e"},
		{I: 1, J: 2, LI: "b", LJ: "c", Out: true, LE: "e"},
		{I: 1, J: 3, LI: "b", LJ: "d", Out: true, LE: "e"},
	}
	got := code.RightmostPath()
	want := []int{0, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("rmpath = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rmpath = %v, want %v", got, want)
		}
	}
}

func TestIsMinimalChain(t *testing.T) {
	// For the chain a->b with labels a<b, the minimal code roots at a.
	minCode := Code{{I: 0, J: 1, LI: "a", LJ: "b", Out: true, LE: "e"}}
	if !minCode.IsMinimal() {
		t.Error("rooting at the smaller label must be minimal")
	}
	other := Code{{I: 0, J: 1, LI: "b", LJ: "a", Out: false, LE: "e"}}
	if other.IsMinimal() {
		t.Error("rooting at the larger label must not be minimal")
	}
}

func TestMineSimpleChainAcrossGraphs(t *testing.T) {
	graphs := []*Graph{
		chain(0, "e", "ldr", "sub", "add"),
		chain(1, "e", "ldr", "sub", "add"),
		chain(2, "e", "mov", "cmp"),
	}
	pats := mineAll(t, graphs, Config{MinSupport: 2})
	// Expected frequent patterns (support >= 2 graphs): ldr->sub,
	// sub->add, ldr->sub->add.
	found := map[string]int{}
	for _, p := range pats {
		found[p.Code.Key()] = p.Support
	}
	if len(pats) != 3 {
		t.Errorf("got %d patterns, want 3:\n%v", len(pats), keys(found))
	}
	for _, p := range pats {
		if p.Support != 2 {
			t.Errorf("pattern %s support = %d, want 2", p.Code, p.Support)
		}
	}
}

// isChain reports whether g is exactly the directed path through nodes
// labelled want[0] -> want[1] -> ...
func isChain(g *Graph, want ...string) bool {
	if len(g.Labels) != len(want) || len(g.Edges) != len(want)-1 {
		return false
	}
	// find the unique node with no incoming edges
	indeg := make([]int, len(g.Labels))
	succ := make([]int, len(g.Labels))
	for i := range succ {
		succ[i] = -1
	}
	for _, e := range g.Edges {
		indeg[e.To]++
		if succ[e.From] != -1 {
			return false
		}
		succ[e.From] = e.To
	}
	start := -1
	for i, d := range indeg {
		if d == 0 {
			if start != -1 {
				return false
			}
			start = i
		}
	}
	for _, w := range want {
		if start == -1 || g.Labels[start] != w {
			return false
		}
		start = succ[start]
	}
	return true
}

func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// runningExample builds the dependence structure of the paper's Fig. 2
// (simplified to its data-flow edges, with uniform edge labels).
func runningExample(id int) *Graph {
	// 0: ldr, 1: sub, 2: add, 3: ldr, 4: sub, 5: ldr, 6: add
	g := &Graph{ID: id, Labels: []string{"ldr", "sub", "add", "ldr", "sub", "ldr", "add"}}
	edges := [][2]int{
		{0, 1}, // r3
		{1, 2}, // r2
		{0, 3}, // r1 pointer chain
		{3, 4}, // r3
		{1, 4}, // r2
		{3, 5}, // r1
		{4, 6}, // r2
	}
	for _, e := range edges {
		g.Edges = append(g.Edges, GEdge{From: e[0], To: e[1], Label: "d"})
	}
	g.Freeze()
	return g
}

// TestRunningExampleEdgarVsDgSpan reproduces the paper's §3 argument:
// the size-3 fragments of Figs. 4/5 occur twice in ONE basic block, so
// graph-based support (DgSpan) misses them while embedding-based support
// (Edgar) finds them.
func TestRunningExampleEdgarVsDgSpan(t *testing.T) {
	graphs := []*Graph{runningExample(0)}

	dg := mineAll(t, graphs, Config{MinSupport: 2})
	if len(dg) != 0 {
		t.Errorf("DgSpan (graph support) found %d patterns in a single graph, want 0", len(dg))
	}

	ed := mineAll(t, graphs, Config{MinSupport: 2, EmbeddingSupport: true})
	if len(ed) == 0 {
		t.Fatal("Edgar found nothing in the running example")
	}
	var size3 []*Pattern
	for _, p := range ed {
		if p.Code.NumNodes() == 3 && p.Support >= 2 {
			size3 = append(size3, p)
		}
	}
	// The paper's Fig. 4 fragment is the chain ldr->sub->add; it must be
	// found (in whatever canonical orientation) with two disjoint
	// embeddings. Check the materialised pattern graph, which is
	// orientation-independent.
	foundFig4 := false
	for _, p := range size3 {
		g := p.Code.ToGraph()
		if !isChain(g, "ldr", "sub", "add") {
			continue
		}
		foundFig4 = true
		if len(p.Disjoint) != 2 {
			t.Errorf("Fig. 4 fragment: %d disjoint embeddings, want 2", len(p.Disjoint))
		}
	}
	if !foundFig4 {
		var codes []string
		for _, p := range size3 {
			codes = append(codes, p.Code.Key())
		}
		t.Errorf("Fig. 4 fragment (ldr->sub->add) not found; size-3 patterns: %v", codes)
	}
}

// TestOverlapCounting reproduces Fig. 8: two overlapping embeddings of a
// size-4 fragment share the middle ldr, so only one is extractable.
func TestOverlapCounting(t *testing.T) {
	e1 := &Embedding{GID: 0, Nodes: []int{0, 1, 2, 3}}
	e2 := &Embedding{GID: 0, Nodes: []int{3, 4, 5, 6}}
	e3 := &Embedding{GID: 0, Nodes: []int{7, 8, 9, 10}}
	if !e1.Overlaps(e2) || e1.Overlaps(e3) {
		t.Fatal("Overlaps broken")
	}
	dis := DisjointEmbeddings([]*Embedding{e1, e2, e3}, Config{})
	if len(dis) != 2 {
		t.Errorf("disjoint = %d, want 2", len(dis))
	}
	// Across graphs there is no overlap.
	e4 := &Embedding{GID: 1, Nodes: []int{0, 1, 2, 3}}
	dis = DisjointEmbeddings([]*Embedding{e1, e2, e4}, Config{})
	if len(dis) != 2 {
		t.Errorf("cross-graph disjoint = %d, want 2", len(dis))
	}
}

func TestExactMISBeatsGreedyOnPathology(t *testing.T) {
	// Interval pathology: one embedding overlapping two disjoint ones.
	// Greedy by max-node still solves this; build a case where greedy
	// by earliest end fails: middle short interval blocks two long ones?
	// Construct a 5-cycle of conflicts, whose MIS is 2.
	embs := []*Embedding{
		{GID: 0, Nodes: []int{0, 1}},
		{GID: 0, Nodes: []int{1, 2}},
		{GID: 0, Nodes: []int{2, 3}},
		{GID: 0, Nodes: []int{3, 4}},
		{GID: 0, Nodes: []int{4, 0}},
	}
	dis := DisjointEmbeddings(embs, Config{})
	if len(dis) != 2 {
		t.Errorf("5-cycle MIS = %d, want 2", len(dis))
	}
	for i := 0; i < len(dis); i++ {
		for j := i + 1; j < len(dis); j++ {
			if dis[i].Overlaps(dis[j]) {
				t.Error("returned embeddings overlap")
			}
		}
	}
}

func TestGreedyMISIsMaximal(t *testing.T) {
	embs := []*Embedding{
		{GID: 0, Nodes: []int{0, 1, 2}},
		{GID: 0, Nodes: []int{2, 3, 4}},
		{GID: 0, Nodes: []int{4, 5, 6}},
		{GID: 0, Nodes: []int{6, 7, 8}},
	}
	dis := DisjointEmbeddings(embs, Config{GreedyMIS: true})
	if len(dis) != 2 {
		t.Errorf("greedy disjoint = %d, want 2", len(dis))
	}
}

func TestMaxNodesCap(t *testing.T) {
	graphs := []*Graph{
		chain(0, "e", "a", "b", "c", "d"),
		chain(1, "e", "a", "b", "c", "d"),
	}
	pats := mineAll(t, graphs, Config{MinSupport: 2, MaxNodes: 2})
	for _, p := range pats {
		if p.Code.NumNodes() > 2 {
			t.Errorf("pattern exceeds node cap: %s", p.Code)
		}
	}
	if len(pats) != 3 { // a->b, b->c, c->d
		t.Errorf("got %d patterns, want 3", len(pats))
	}
}

func TestMaxPatternsAborts(t *testing.T) {
	graphs := []*Graph{
		chain(0, "e", "a", "b", "c", "d", "e", "f"),
		chain(1, "e", "a", "b", "c", "d", "e", "f"),
	}
	count := 0
	Mine(graphs, Config{MinSupport: 2, MaxPatterns: 4}, func(p *Pattern) { count++ })
	if count != 4 {
		t.Errorf("visited %d patterns, want 4", count)
	}
}

// TestNoDuplicatePatterns: the canonical-form pruning must report each
// frequent pattern exactly once even in highly symmetric graphs.
func TestNoDuplicatePatterns(t *testing.T) {
	// A diamond: 0->1, 0->2, 1->3, 2->3, all labels equal.
	g := &Graph{ID: 0, Labels: []string{"x", "x", "x", "x"}}
	g.Edges = []GEdge{{0, 1, "e"}, {0, 2, "e"}, {1, 3, "e"}, {2, 3, "e"}}
	g.Freeze()
	g2 := &Graph{ID: 1, Labels: g.Labels, Edges: g.Edges}
	g2.Freeze()

	seen := map[string]bool{}
	foundDiamond := false
	Mine([]*Graph{g, g2}, Config{MinSupport: 2}, func(p *Pattern) {
		k := p.Code.Key()
		if seen[k] {
			t.Errorf("pattern reported twice: %s", p.Code)
		}
		seen[k] = true
		if p.Code.NumNodes() == 4 {
			foundDiamond = true
		}
	})
	if len(seen) == 0 {
		t.Fatal("nothing mined")
	}
	// The full diamond must be among the results (it appears in both
	// graphs).
	if !foundDiamond {
		t.Error("4-node diamond not found")
	}
}

// TestMultiEdgeSupport: parallel edges with different labels must be
// distinguishable patterns.
func TestMultiEdgeLabels(t *testing.T) {
	mk := func(id int) *Graph {
		g := &Graph{ID: id, Labels: []string{"p", "q"}}
		g.Edges = []GEdge{{0, 1, "raw:r1"}, {0, 1, "waw:r3"}}
		g.Freeze()
		return g
	}
	pats := mineAll(t, []*Graph{mk(0), mk(1)}, Config{MinSupport: 2})
	// Patterns: p-raw->q, p-waw->q, and the 2-edge multigraph.
	if len(pats) != 3 {
		for _, p := range pats {
			t.Logf("pattern: %s", p.Code)
		}
		t.Errorf("got %d patterns, want 3", len(pats))
	}
}

// TestEmbeddingSupportAntimonotone: child support never exceeds parent
// support (required for sound frequency pruning).
func TestEmbeddingSupportAntimonotone(t *testing.T) {
	graphs := []*Graph{runningExample(0), runningExample(1)}
	support := map[string]int{}
	Mine(graphs, Config{MinSupport: 2, EmbeddingSupport: true}, func(p *Pattern) {
		support[p.Code.Key()] = p.Support
	})
	// Every child (code with prefix c) must have support <= its parent.
	for k, s := range support {
		for k2, s2 := range support {
			if k != k2 && len(k2) > len(k) && k2[:len(k)] == k {
				if s2 > s {
					t.Errorf("child %q support %d > parent %q support %d", k2, s2, k, s)
				}
			}
		}
	}
}

// TestMineManyDistinctLabels feeds one Mine call more than 2^20 distinct
// labels, interned ahead of the frequent ones so their ids are large.
// Label ids size with the input: the filler may change nothing but the
// ids, so the patterns and supports must equal a run without it.
func TestMineManyDistinctLabels(t *testing.T) {
	const filler = 1<<20 + 1
	big := &Graph{ID: 0, Labels: make([]string, filler)}
	for i := range big.Labels {
		big.Labels[i] = "f" + strconv.Itoa(i)
	}
	for i := 0; i+1 < 1024; i++ {
		big.Edges = append(big.Edges, GEdge{From: i, To: i + 1, Label: "e" + strconv.Itoa(i)})
	}
	motif := func(id int) *Graph { return chain(id, "raw", "ldr", "sub", "add", "str") }
	for _, cfg := range []Config{{MinSupport: 2}, {MinSupport: 2, EmbeddingSupport: true}} {
		want := map[string]int{}
		for _, p := range mineAll(t, []*Graph{motif(1), motif(2)}, cfg) {
			want[p.Code.Key()] = p.Support
		}
		got := map[string]int{}
		for _, p := range mineAll(t, []*Graph{big, motif(1), motif(2)}, cfg) {
			got[p.Code.Key()] = p.Support
		}
		if len(want) != 6 || !maps.Equal(got, want) {
			t.Errorf("EmbeddingSupport=%v: got %v, want %v (6 patterns)", cfg.EmbeddingSupport, got, want)
		}
	}
}
