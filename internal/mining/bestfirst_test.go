package mining

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// The benefit-directed walk changes WHICH lattice nodes are visited (that
// is its purpose) but must not change what a branch-and-bound consumer
// mines. These tests drive Mine with a pa-style scalar-incumbent policy —
// admissible upper bounds, strictly-less pruning, ties kept — under both
// sibling orders and demand the identical final (best, tie set). They
// also pin misUpperBound's admissibility, the property every prune above
// rests on.

// bbHarness is the miniature branch-and-bound consumer: benefit
// (m-1)*(k-1) — pa's cross-jump polynomial, monotone in both arguments.
type bbHarness struct {
	maxK int
	best int
	ties map[string]bool
	vis  int
}

func (h *bbHarness) ub(m int) int { return (m - 1) * (h.maxK - 1) }

func (h *bbHarness) config(lex bool) Config {
	return Config{
		MinSupport:       2,
		MaxNodes:         h.maxK,
		EmbeddingSupport: true,
		Lexicographic:    lex,
		// Admissible: a descendant's disjoint-set size never exceeds the
		// ancestor's MIS (restriction of disjoint embeddings), and
		// misUpperBound, which the benefit-directed walk hands ViableCount
		// before each descent, dominates the child subtree's MIS.
		PruneSubtree: func(p *Pattern) bool { return h.ub(p.Support) < h.best },
		ViableCount:  func(count int) bool { return h.ub(count) >= h.best },
	}
}

func (h *bbHarness) run(t *testing.T, graphs []*Graph, lex bool) {
	t.Helper()
	h.best, h.ties, h.vis = 0, map[string]bool{}, 0
	h.vis = Mine(graphs, h.config(lex), func(p *Pattern) {
		k := p.Code.NumNodes()
		if k < 2 {
			return
		}
		ben := (len(p.Disjoint) - 1) * (k - 1)
		if ben <= 0 {
			return
		}
		if ben > h.best {
			h.best = ben
			h.ties = map[string]bool{}
		}
		if ben == h.best {
			h.ties[p.Code.Key()] = true
		}
	})
}

func tieKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func runBestFirstEquivalence(t *testing.T, name string, graphs []*Graph) {
	t.Helper()
	h := &bbHarness{maxK: 5}
	h.run(t, graphs, true)
	wantBest, wantTies := h.best, tieKeys(h.ties)
	h.run(t, graphs, false)
	if h.best != wantBest {
		t.Fatalf("%s: best-first incumbent %d, want %d", name, h.best, wantBest)
	}
	if got := tieKeys(h.ties); fmt.Sprint(got) != fmt.Sprint(wantTies) {
		t.Fatalf("%s: best-first tie set %v, want %v", name, got, wantTies)
	}
}

func TestBestFirstMatchesLexicographic(t *testing.T) {
	for name, graphs := range testGraphSets() {
		runBestFirstEquivalence(t, name, graphs)
	}
}

func TestBestFirstMatchesLexicographicRandom(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	nodeLabels := []string{"a", "b", "c"}
	edgeLabels := []string{"x", "y"}
	for trial := 0; trial < 25; trial++ {
		var graphs []*Graph
		for i := 0; i < 3; i++ {
			graphs = append(graphs, randDAG(r, i, 5+r.Intn(6), 6+r.Intn(10), nodeLabels, edgeLabels))
		}
		runBestFirstEquivalence(t, fmt.Sprintf("trial%d", trial), graphs)
	}
}

// TestMISUpperBoundAdmissible: the bound must dominate the exact MIS of
// the pattern itself AND of every child (the subtree property the child
// prune relies on). The walk supplies parent/child pairs: a minimal DFS
// code's prefix is its parent's minimal code.
func TestMISUpperBoundAdmissible(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	nodeLabels := []string{"a", "b"}
	edgeLabels := []string{"x", "y"}
	for trial := 0; trial < 15; trial++ {
		var graphs []*Graph
		for i := 0; i < 3; i++ {
			graphs = append(graphs, randDAG(r, i, 5+r.Intn(5), 6+r.Intn(8), nodeLabels, edgeLabels))
		}
		bounds := map[string]int{}
		cfg := Config{MinSupport: 2, MaxNodes: 5, EmbeddingSupport: true, Lexicographic: true}
		Mine(graphs, cfg, func(p *Pattern) {
			mis := len(p.Disjoint)
			b := MISUpperBound(p.Embeddings)
			if b < mis {
				t.Fatalf("trial %d: bound %d below exact MIS %d for %s", trial, b, mis, p.Code.Key())
			}
			bounds[p.Code.Key()] = b
			if len(p.Code) > 1 {
				parent := p.Code[:len(p.Code)-1]
				if pb, ok := bounds[parent.Key()]; ok && mis > pb {
					t.Fatalf("trial %d: child %s MIS %d exceeds parent bound %d", trial, p.Code.Key(), mis, pb)
				}
			}
		})
	}
}
