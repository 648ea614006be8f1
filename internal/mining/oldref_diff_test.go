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
