package mining

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// randDAG builds a random labelled DAG (edges only forward, like
// dependence graphs).
func randDAG(r *rand.Rand, id, nodes, edges int, nodeLabels, edgeLabels []string) *Graph {
	g := &Graph{ID: id}
	for i := 0; i < nodes; i++ {
		g.Labels = append(g.Labels, nodeLabels[r.Intn(len(nodeLabels))])
	}
	seen := map[[2]int]bool{}
	for e := 0; e < edges; e++ {
		a, b := r.Intn(nodes), r.Intn(nodes)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		g.Edges = append(g.Edges, GEdge{From: a, To: b, Label: edgeLabels[r.Intn(len(edgeLabels))]})
	}
	g.Freeze()
	return g
}

// randomDAGSets returns n databases of three random DAGs each, over few
// labels so that automorphisms are dense.
func randomDAGSets(seed int64, n int) [][]*Graph {
	r := rand.New(rand.NewSource(seed))
	nodeLabels := []string{"a", "b", "c"}
	edgeLabels := []string{"x", "y"}
	var sets [][]*Graph
	for trial := 0; trial < n; trial++ {
		var graphs []*Graph
		for i := 0; i < 3; i++ {
			graphs = append(graphs, randDAG(r, i, 5+r.Intn(6), 6+r.Intn(10), nodeLabels, edgeLabels))
		}
		sets = append(sets, graphs)
	}
	return sets
}

// TestPropertyEmbeddingsAreValid: every reported embedding must be an
// injective, label- and direction-preserving subgraph isomorphism, and no
// pattern may be reported twice.
func TestPropertyEmbeddingsAreValid(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	nodeLabels := []string{"a", "b", "c"}
	edgeLabels := []string{"x", "y"}
	for trial := 0; trial < 25; trial++ {
		var graphs []*Graph
		for i := 0; i < 3; i++ {
			graphs = append(graphs, randDAG(r, i, 5+r.Intn(5), 6+r.Intn(8), nodeLabels, edgeLabels))
		}
		byID := map[int]*Graph{}
		for _, g := range graphs {
			byID[g.ID] = g
		}
		seenCodes := map[string]bool{}
		count := 0
		Mine(graphs, Config{MinSupport: 2, MaxNodes: 5, EmbeddingSupport: true, MaxPatterns: 5000}, func(p *Pattern) {
			count++
			key := p.Code.Key()
			if seenCodes[key] {
				t.Fatalf("trial %d: duplicate pattern %s", trial, key)
			}
			seenCodes[key] = true
			if !p.Code.IsMinimal() {
				t.Fatalf("trial %d: non-canonical pattern reported: %s", trial, key)
			}
			pg := p.Code.ToGraph()
			for i := 0; i < p.Embeddings.Len(); i++ {
				emb := p.Embeddings.Emb(i)
				g := byID[emb.GID]
				validateEmbedding(t, trial, pg, g, emb)
			}
			// Disjoint embeddings must be pairwise node-disjoint and a
			// subset of all embeddings.
			for i := 0; i < len(p.Disjoint); i++ {
				for j := i + 1; j < len(p.Disjoint); j++ {
					if p.Embeddings.Overlaps(int(p.Disjoint[i]), int(p.Disjoint[j])) {
						t.Fatalf("trial %d: disjoint set overlaps", trial)
					}
				}
			}
			if p.Support != len(p.Disjoint) {
				t.Fatalf("trial %d: support %d != |disjoint| %d", trial, p.Support, len(p.Disjoint))
			}
		})
		if count == 0 {
			continue // sparse random instance; fine
		}
	}
}

func validateEmbedding(t *testing.T, trial int, pat, g *Graph, emb Embedding) {
	t.Helper()
	if len(emb.Nodes) != len(pat.Labels) || len(emb.Edges) != len(pat.Edges) {
		t.Fatalf("trial %d: embedding arity mismatch", trial)
	}
	// injective
	seen := map[int]bool{}
	for di, n := range emb.Nodes {
		if seen[n] {
			t.Fatalf("trial %d: non-injective embedding", trial)
		}
		seen[n] = true
		if g.Labels[n] != pat.Labels[di] {
			t.Fatalf("trial %d: node label mismatch", trial)
		}
	}
	// each pattern edge maps to a distinct graph edge with right
	// endpoints, direction and label
	usedEdges := map[int]bool{}
	for ei, pe := range pat.Edges {
		ge := g.Edges[emb.Edges[ei]]
		if usedEdges[emb.Edges[ei]] {
			t.Fatalf("trial %d: edge reused", trial)
		}
		usedEdges[emb.Edges[ei]] = true
		wantFrom, wantTo := emb.Nodes[pe.From], emb.Nodes[pe.To]
		if ge.From != wantFrom || ge.To != wantTo {
			t.Fatalf("trial %d: edge endpoints/direction mismatch: pattern %v->%v maps to %v->%v",
				trial, pe.From, pe.To, ge.From, ge.To)
		}
		if ge.Label != pe.Label {
			t.Fatalf("trial %d: edge label mismatch", trial)
		}
	}
}

// TestPropertySupportMatchesBruteForce cross-checks DgSpan graph-count
// support against a brute-force occurrence check on small instances.
func TestPropertySupportMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		var graphs []*Graph
		for i := 0; i < 4; i++ {
			graphs = append(graphs, randDAG(r, i, 4+r.Intn(3), 4+r.Intn(4), []string{"a", "b"}, []string{"x"}))
		}
		Mine(graphs, Config{MinSupport: 2, MaxNodes: 3, MaxPatterns: 2000}, func(p *Pattern) {
			gids := map[int]bool{}
			for i := 0; i < p.Embeddings.Len(); i++ {
				gids[p.Embeddings.GID(i)] = true
			}
			if p.Support != len(gids) {
				t.Fatalf("trial %d: support %d != distinct graphs %d", trial, p.Support, len(gids))
			}
			// brute force: the pattern must occur in each claimed graph
			pg := p.Code.ToGraph()
			for gid := range gids {
				if !bruteForceOccurs(pg, graphs[gid]) {
					t.Fatalf("trial %d: claimed occurrence not found by brute force", trial)
				}
			}
		})
	}
}

// bruteForceOccurs checks subgraph isomorphism by exhaustive backtracking
// (small inputs only).
func bruteForceOccurs(pat, g *Graph) bool {
	n := len(pat.Labels)
	assign := make([]int, n)
	used := make([]bool, len(g.Labels))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == n {
			// check all edges exist
			for _, pe := range pat.Edges {
				found := false
				for _, ge := range g.Edges {
					if ge.From == assign[pe.From] && ge.To == assign[pe.To] && ge.Label == pe.Label {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
			return true
		}
		for v := 0; v < len(g.Labels); v++ {
			if used[v] || g.Labels[v] != pat.Labels[i] {
				continue
			}
			used[v] = true
			assign[i] = v
			if rec(i + 1) {
				used[v] = false
				return true
			}
			used[v] = false
		}
		return false
	}
	return rec(0)
}

// TestPropertyMISNeverWorseThanGreedy: the exact solver must always find
// at least as many disjoint embeddings as the greedy heuristic.
func TestPropertyMISNeverWorseThanGreedy(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		var embs []*Embedding
		n := 3 + r.Intn(12)
		for i := 0; i < n; i++ {
			start := r.Intn(20)
			size := 1 + r.Intn(4)
			nodes := make([]int, size)
			for j := range nodes {
				nodes[j] = start + j
			}
			embs = append(embs, &Embedding{GID: 0, Nodes: nodes})
		}
		exact := DisjointEmbeddings(embs, Config{})
		greedy := DisjointEmbeddings(embs, Config{GreedyMIS: true})
		if len(exact) < len(greedy) {
			t.Fatalf("trial %d: exact %d < greedy %d (%s)", trial, len(exact), len(greedy), dumpEmbs(embs))
		}
	}
}

func dumpEmbs(embs []*Embedding) string {
	s := ""
	for _, e := range embs {
		s += fmt.Sprintf("%v ", e.Nodes)
	}
	return s
}

// randOpDAG is randDAG with operand-bearing labels — node labels carry
// register operands and edge labels carry kind:register parts — so the
// coarsening's class collapsing (LabelClass, EdgeClass) has something to
// collapse.
func randOpDAG(r *rand.Rand, id, nodes, edges int) *Graph {
	nodeLabels := []string{"eor r1, r2, r3", "eor r4, r5, r6", "add r1, r2", "ldr r5, [sp]", "mov"}
	edgeLabels := []string{"raw:r1", "raw:r5", "war:r2", "raw:r1+war:r3", "ctl"}
	return randDAG(r, id, nodes, edges, nodeLabels, edgeLabels)
}

// copyGraph rebuilds g from scratch so pointer identity cannot leak into
// a determinism check.
func copyGraph(g *Graph) *Graph {
	c := &Graph{ID: g.ID, Labels: append([]string(nil), g.Labels...), Edges: append([]GEdge(nil), g.Edges...)}
	c.Freeze()
	return c
}

// TestPropertyCoarsenDeterministic: coarsening is a pure function of the
// graph — repeated runs and structurally identical copies must produce
// identical projections, sizes, capacity tables and coarse graphs. The
// pa layer caches coarsenings per graph and feeds them into bounds that
// participate in checkpoint validation, which is only sound under this
// property.
func TestPropertyCoarsenDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		g := randOpDAG(r, trial, 4+r.Intn(12), 3+r.Intn(16))
		a, b, c := Coarsen(g), Coarsen(g), Coarsen(copyGraph(g))
		for i, o := range []*Coarsening{b, c} {
			if !reflect.DeepEqual(a.Proj, o.Proj) || !reflect.DeepEqual(a.Size, o.Size) {
				t.Fatalf("trial %d run %d: projection differs", trial, i)
			}
			if !reflect.DeepEqual(a.Caps, o.Caps) {
				t.Fatalf("trial %d run %d: capacity table differs", trial, i)
			}
			if !reflect.DeepEqual(a.Graph.Labels, o.Graph.Labels) || !reflect.DeepEqual(a.Graph.Edges, o.Graph.Edges) {
				t.Fatalf("trial %d run %d: coarse graph differs", trial, i)
			}
		}
	}
}

// TestPropertyCoarsenProjection: the projection map is a well-formed,
// label-preserving contraction — every fine node lands in a supernode
// whose label contains its class, and every fine edge either stays
// inside one supernode or projects onto a coarse edge with its class.
func TestPropertyCoarsenProjection(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for trial := 0; trial < 50; trial++ {
		g := randOpDAG(r, trial, 4+r.Intn(12), 3+r.Intn(16))
		c := Coarsen(g)
		if len(c.Proj) != g.NumNodes() {
			t.Fatalf("trial %d: projection arity %d != %d nodes", trial, len(c.Proj), g.NumNodes())
		}
		total, next := int32(0), int32(0)
		for _, s := range c.Size {
			total += s
		}
		if total != int32(g.NumNodes()) {
			t.Fatalf("trial %d: supernode sizes sum to %d, want %d", trial, total, g.NumNodes())
		}
		for i, cn := range c.Proj {
			if cn < 0 || int(cn) >= len(c.Size) {
				t.Fatalf("trial %d: node %d projects out of range (%d)", trial, i, cn)
			}
			// Supernodes are numbered by smallest fine member, so first
			// appearances run 0, 1, 2, ...
			if cn == next {
				next++
			} else if cn > next {
				t.Fatalf("trial %d: supernode %d appears before %d", trial, cn, next)
			}
			label := "|" + c.Graph.Labels[cn] + "|"
			if !strings.Contains(label, "|"+LabelClass(g.Labels[i])+"|") {
				t.Fatalf("trial %d: node %d class %q missing from supernode label %q",
					trial, i, LabelClass(g.Labels[i]), c.Graph.Labels[cn])
			}
		}
		for _, e := range g.Edges {
			if c.Proj[e.From] == c.Proj[e.To] {
				continue // internal: consumed by the contraction
			}
			found := false
			for _, ce := range c.Graph.Edges {
				if int32(ce.From) == c.Proj[e.From] && int32(ce.To) == c.Proj[e.To] && ce.Label == EdgeClass(e.Label) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("trial %d: crossing edge %d->%d (%s) has no coarse image", trial, e.From, e.To, e.Label)
			}
		}
	}
}

// TestPropertyCoarsenCapsAdmissible: for every tuple class, the capacity
// table must bound the true maximum node-disjoint set of fine edges of
// that class — computed exactly by handing each edge to the exact MIS
// solver as a two-node embedding. This is the admissibility a capacity
// bound on the fine walk leans on: a child's disjoint embeddings pin
// disjoint instances of its newest tuple's edge.
func TestPropertyCoarsenCapsAdmissible(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		g := randOpDAG(r, trial, 4+r.Intn(12), 3+r.Intn(20))
		caps := Coarsen(g).Caps
		byClass := map[TupleClass][]*Embedding{}
		for ei, e := range g.Edges {
			ct := TupleClass{From: LabelClass(g.Labels[e.From]), To: LabelClass(g.Labels[e.To]), LE: EdgeClass(e.Label)}
			byClass[ct] = append(byClass[ct], &Embedding{GID: g.ID, Nodes: []int{e.From, e.To}, Edges: []int{ei}})
		}
		for ct, embs := range byClass {
			exact := len(DisjointEmbeddings(embs, Config{}))
			if exact > caps[ct] {
				t.Fatalf("trial %d: class %v has %d disjoint fine edges but capacity %d", trial, ct, exact, caps[ct])
			}
		}
	}
}

// TestPropertyCoarseBoundDominatesFineMIS: for every fine pattern the
// miner reports, the coarse capacity bound of its newest tuple's class
// (summed over the graphs it embeds in) must be at least its exact MIS
// support — i.e. min(misUpperBound, capacity) stays admissible, which is
// how the removed multiresolution pass combined the two (DESIGN.md §12).
func TestPropertyCoarseBoundDominatesFineMIS(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 25; trial++ {
		var graphs []*Graph
		caps := map[int]map[TupleClass]int{}
		for i := 0; i < 3; i++ {
			g := randOpDAG(r, i, 5+r.Intn(6), 6+r.Intn(10))
			graphs = append(graphs, g)
			caps[g.ID] = Coarsen(g).Caps
		}
		Mine(graphs, Config{MinSupport: 2, MaxNodes: 4, EmbeddingSupport: true, MaxPatterns: 5000}, func(p *Pattern) {
			last := p.Code[len(p.Code)-1]
			ct := ClassOfTuple(last)
			capSum, seen := 0, map[int]bool{}
			for i := 0; i < p.Embeddings.Len(); i++ {
				gid := p.Embeddings.GID(i)
				if !seen[gid] {
					seen[gid] = true
					capSum += caps[gid][ct]
				}
			}
			if p.Support > capSum {
				t.Fatalf("trial %d: pattern %s has MIS support %d above coarse capacity %d (class %v)",
					trial, p.Code.Key(), p.Support, capSum, ct)
			}
			if ub := MISUpperBound(p.Embeddings); p.Support > ub {
				t.Fatalf("trial %d: pattern %s has MIS support %d above misUpperBound %d",
					trial, p.Code.Key(), p.Support, ub)
			}
		})
	}
}
