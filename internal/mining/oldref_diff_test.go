package mining

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// oldTrace renders an OldPattern in the exact format trace renders a
// Pattern, with the disjoint set as row indices, so the two walks can be
// compared line for line.
func oldTrace(p *OldPattern) string {
	idx := make(map[*Embedding]int32, len(p.Embeddings))
	for i, e := range p.Embeddings {
		idx[e] = int32(i)
	}
	dis := make([]int32, len(p.Disjoint))
	for i, e := range p.Disjoint {
		dis[i] = idx[e]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s sup=%d dis=%v;", p.Code.Key(), p.Support, dis)
	for _, e := range p.Embeddings {
		fmt.Fprintf(&b, " %d:%v|%v", e.GID, e.Nodes, e.Edges)
	}
	return b.String()
}

func oldMineTrace(graphs []*Graph, cfg Config) []string {
	var out []string
	OldMine(graphs, cfg, func(p *OldPattern) { out = append(out, oldTrace(p)) })
	return out
}

// TestFlatMatchesBoxedReference: the flat EmbSet walk must reproduce the
// boxed reference implementation's visit sequence byte for byte — same
// patterns, same order, same supports, same embedding rows, same
// disjoint-set indices — across support modes, size caps, MIS variants
// and budget truncation.
func TestFlatMatchesBoxedReference(t *testing.T) {
	// The boxed reference predates the benefit-directed sibling order, so
	// the flat walk is pinned against it in Lexicographic mode; the
	// benefit-directed order is differenced against the lexicographic one
	// at the result level in bestfirst_test.go.
	configs := map[string]Config{
		"graph-support":     {MinSupport: 2, Lexicographic: true},
		"embedding-support": {MinSupport: 2, EmbeddingSupport: true, Lexicographic: true},
		"capped":            {MinSupport: 2, EmbeddingSupport: true, MaxNodes: 3, Lexicographic: true},
		"greedy-mis":        {MinSupport: 2, EmbeddingSupport: true, GreedyMIS: true, Lexicographic: true},
		"tiny-exact-limit":  {MinSupport: 2, EmbeddingSupport: true, MISExactLimit: 2, Lexicographic: true},
		"budget":            {MinSupport: 2, EmbeddingSupport: true, MaxPatterns: 9, Lexicographic: true},
	}
	for gname, graphs := range testGraphSets() {
		for cname, cfg := range configs {
			want := oldMineTrace(graphs, cfg)
			got := mineTrace(graphs, cfg)
			assertSameTrace(t, gname+"/"+cname, want, got)
		}
	}
}

// TestFlatMatchesBoxedRandom drives the same differential over random
// DAGs, where automorphic rediscoveries, dedupe collisions and mixed
// group shapes are far denser than in the handwritten sets.
func TestFlatMatchesBoxedRandom(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	nodeLabels := []string{"a", "b", "c"}
	edgeLabels := []string{"x", "y"}
	for trial := 0; trial < 30; trial++ {
		var graphs []*Graph
		for i := 0; i < 3; i++ {
			graphs = append(graphs, randDAG(r, i, 5+r.Intn(6), 6+r.Intn(10), nodeLabels, edgeLabels))
		}
		for _, cfg := range []Config{
			{MinSupport: 2, MaxNodes: 5, EmbeddingSupport: true, MaxPatterns: 3000, Lexicographic: true},
			{MinSupport: 2, MaxNodes: 4, MaxPatterns: 3000, Lexicographic: true},
		} {
			want := oldMineTrace(graphs, cfg)
			got := mineTrace(graphs, cfg)
			assertSameTrace(t, fmt.Sprintf("trial%d/emb=%v", trial, cfg.EmbeddingSupport), want, got)
		}
	}
}

// TestIsMinimalMatchesBoxed compares IsMinimal with the boxed reference
// code by code: every child code, minimal or not, that the visits of
// walks over the handwritten sets and over random DAGs (dense in
// automorphisms) generate, at support 1 (every subgraph) and 2.
func TestIsMinimalMatchesBoxed(t *testing.T) {
	sets := testGraphSets()
	r := rand.New(rand.NewSource(42))
	nodeLabels := []string{"a", "b", "c"}
	edgeLabels := []string{"x", "y"}
	for trial := 0; trial < 30; trial++ {
		var graphs []*Graph
		for i := 0; i < 3; i++ {
			graphs = append(graphs, randDAG(r, i, 5+r.Intn(6), 6+r.Intn(10), nodeLabels, edgeLabels))
		}
		sets[fmt.Sprintf("random%02d", trial)] = graphs
	}
	names := make([]string, 0, len(sets))
	for name := range sets {
		names = append(names, name)
	}
	sort.Strings(names)
	verdicts := map[bool]int{}
	for _, name := range names {
		for _, minSup := range []int{1, 2} {
			cfg := Config{MinSupport: minSup, MaxNodes: 5, EmbeddingSupport: true, MaxPatterns: 1000}
			probe := &miner{cfg: cfg, gx: newGraphIndex(sets[name])}
			Mine(sets[name], cfg, func(p *Pattern) {
				for _, g := range probe.extendGroups(p.Code, p.Embeddings) {
					child := append(p.Code[:len(p.Code):len(p.Code)], g.t)
					got, want := child.IsMinimal(), oldIsMinimal(child)
					if got != want {
						t.Fatalf("%s/minsup=%d: IsMinimal(%s) = %v, reference %v", name, minSup, child, got, want)
					}
					verdicts[got]++
				}
			})
		}
	}
	t.Logf("verdicts: %v", verdicts)
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("verdicts %v: both outcomes must be exercised", verdicts)
	}
}

// TestIsMinimalExitsMatchBoxed drives IsMinimal down the exits that child
// codes of real lattices never reach, with hand-built ill-formed codes,
// and compares each verdict with the boxed reference. A code's pattern
// graph holds the code's own edges, so at step 0 there is always some
// first tuple: the "no extension" exit exists only at later steps. Node
// labels are the last ones the code assigns, which is how a code can
// claim a label its pattern graph does not carry.
func TestIsMinimalExitsMatchBoxed(t *testing.T) {
	tu := func(i, j int, li string, out bool, le, lj string) Tuple {
		return Tuple{I: i, J: j, LI: li, LJ: lj, Out: out, LE: le}
	}
	cases := []struct {
		name string
		code Code
		want bool
	}{
		{
			// (0,1,a,<,x,b) from node 1 is below c[0].
			"smaller/step0",
			Code{tu(0, 1, "b", true, "x", "a")},
			false,
		},
		{
			// Step 1 collects (0,2,a,>,y,c), equal to c[1], then meets
			// the forward extension from node 1, which is smaller.
			"smaller/step1",
			Code{tu(0, 1, "a", true, "x", "b"), tu(0, 2, "a", true, "y", "c"), tu(1, 3, "b", true, "x", "d")},
			false,
		},
		{
			// c[1] relabels node 0 to z, so every first tuple of the
			// pattern graph is larger than c[0].
			"larger/step0",
			Code{tu(0, 1, "a", true, "x", "b"), tu(0, 2, "z", true, "x", "c")},
			true,
		},
		{
			// c[3] relabels node 3 to z: at step 2 the extension along
			// c[2]'s edge reads (2,3,c,>,x,z) and the other one,
			// (1,3,b,<,y,z), starts further left; both exceed c[2].
			"larger/step2",
			Code{tu(0, 1, "a", true, "x", "b"), tu(1, 2, "b", true, "x", "c"), tu(2, 3, "c", true, "x", "d"), tu(3, 1, "z", true, "y", "b")},
			true,
		},
		{
			// c[1]'s edge is disconnected from c[0]'s: the prefix has
			// no extension at all.
			"none/step1",
			Code{tu(0, 1, "a", true, "x", "b"), tu(2, 3, "c", true, "x", "d")},
			false,
		},
	}
	for _, tc := range cases {
		got, ref := tc.code.IsMinimal(), oldIsMinimal(tc.code)
		if got != ref {
			t.Errorf("%s: IsMinimal(%s) = %v, reference %v", tc.name, tc.code, got, ref)
		}
		if got != tc.want {
			t.Errorf("%s: IsMinimal(%s) = %v, want %v", tc.name, tc.code, got, tc.want)
		}
		mn := &miner{}
		if cm := mn.childMinimal(tc.code[:len(tc.code)-1], tc.code[len(tc.code)-1]); cm != got {
			t.Errorf("%s: childMinimal = %v, IsMinimal %v", tc.name, cm, got)
		}
	}
}
