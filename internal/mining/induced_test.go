package mining

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// inducedForm is a canonical form of the subgraph of g induced by nodes,
// computed without DFS codes: the smallest rendering of its labels and
// edges over every node order that sorts the labels. Two node sets have
// equal forms exactly when their induced subgraphs are isomorphic.
func inducedForm(g *Graph, nodes []int) string {
	pos := map[int]int{}
	for i, v := range nodes {
		pos[v] = i
	}
	k := len(nodes)
	// edges[a][b]: sorted labels of the edges a→b, by index in nodes.
	edges := make([][][]string, k)
	for a := range edges {
		edges[a] = make([][]string, k)
	}
	for _, e := range g.Edges {
		a, ina := pos[e.From]
		b, inb := pos[e.To]
		if ina && inb {
			edges[a][b] = append(edges[a][b], e.Label)
		}
	}
	for a := range edges {
		for b := range edges[a] {
			sort.Strings(edges[a][b])
		}
	}
	labels := make([]string, k)
	for i, v := range nodes {
		labels[i] = g.Labels[v]
	}
	sorted := slices.Clone(labels)
	sort.Strings(sorted)
	best := ""
	order := make([]int, 0, k)
	used := make([]bool, k)
	var rec func()
	rec = func() {
		i := len(order)
		if i == k {
			var b strings.Builder
			b.WriteString(strings.Join(sorted, ","))
			for x := range order {
				for y := range order {
					if ls := edges[order[x]][order[y]]; len(ls) > 0 {
						fmt.Fprintf(&b, ";%d>%d:%s", x, y, strings.Join(ls, "+"))
					}
				}
			}
			if s := b.String(); best == "" || s < best {
				best = s
			}
			return
		}
		for v := range k {
			if !used[v] && labels[v] == sorted[i] {
				used[v] = true
				order = append(order, v)
				rec()
				order = order[:i]
				used[v] = false
			}
		}
	}
	rec()
	return best
}

// randomMultigraphSets returns n databases of three small random
// multigraphs each: an edge may join a pair another edge already joins,
// in either direction.
func randomMultigraphSets(seed int64, n int) [][]*Graph {
	r := rand.New(rand.NewSource(seed))
	var sets [][]*Graph
	for range n {
		var graphs []*Graph
		for id := range 3 {
			g := &Graph{ID: id}
			for range 4 + r.Intn(3) {
				g.Labels = append(g.Labels, []string{"a", "b"}[r.Intn(2)])
			}
			for range 5 + r.Intn(6) {
				a, b := r.Intn(len(g.Labels)), r.Intn(len(g.Labels))
				if a != b {
					g.Edges = append(g.Edges, GEdge{From: a, To: b, Label: []string{"x", "y"}[r.Intn(2)]})
				}
			}
			g.Freeze()
			graphs = append(graphs, g)
		}
		sets = append(sets, graphs)
	}
	return sets
}

// inducedGroup is one isomorphism class of connected induced subgraphs:
// its occurrences as "gid:sorted nodes" keys, sorted.
type inducedGroup struct {
	rows []string
	sets []nodeSet
}

type nodeSet struct {
	gid   int
	nodes []int
}

// bruteInducedGroups enumerates every connected node set of 2 to
// maxNodes nodes of every graph and groups the sets by inducedForm.
func bruteInducedGroups(graphs []*Graph, maxNodes int) map[string]*inducedGroup {
	out := map[string]*inducedGroup{}
	for _, g := range graphs {
		nbr := make([][]int, len(g.Labels))
		for _, e := range g.Edges {
			nbr[e.From] = append(nbr[e.From], e.To)
			nbr[e.To] = append(nbr[e.To], e.From)
		}
		seen := map[uint64]bool{}
		var grow func(set uint64, nodes []int)
		grow = func(set uint64, nodes []int) {
			if seen[set] {
				return
			}
			seen[set] = true
			if len(nodes) >= 2 {
				sorted := slices.Clone(nodes)
				slices.Sort(sorted)
				form := inducedForm(g, sorted)
				grp := out[form]
				if grp == nil {
					grp = &inducedGroup{}
					out[form] = grp
				}
				grp.rows = append(grp.rows, fmt.Sprintf("%d:%v", g.ID, sorted))
				grp.sets = append(grp.sets, nodeSet{g.ID, sorted})
			}
			if len(nodes) == maxNodes {
				return
			}
			for _, u := range nodes {
				for _, v := range nbr[u] {
					if set&(1<<v) == 0 {
						grow(set|1<<v, append(slices.Clip(nodes), v))
					}
				}
			}
		}
		for v := range g.Labels {
			grow(1<<v, []int{v})
		}
	}
	for _, grp := range out {
		sort.Strings(grp.rows)
	}
	return out
}

// graphCount is the number of distinct graphs the sets lie in.
func graphCount(sets []nodeSet) int {
	gids := map[int]bool{}
	for _, s := range sets {
		gids[s.gid] = true
	}
	return len(gids)
}

// exactMIS is the size of a largest set of pairwise node-disjoint sets,
// by exhaustive branching.
func exactMIS(sets []nodeSet) int {
	overlap := func(a, b nodeSet) bool {
		if a.gid != b.gid {
			return false
		}
		for _, x := range a.nodes {
			if slices.Contains(b.nodes, x) {
				return true
			}
		}
		return false
	}
	var rec func(i int, chosen []nodeSet) int
	rec = func(i int, chosen []nodeSet) int {
		if i == len(sets) {
			return len(chosen)
		}
		best := rec(i+1, chosen)
		if len(chosen)+len(sets)-i <= best {
			return best
		}
		if !slices.ContainsFunc(chosen, func(c nodeSet) bool { return overlap(c, sets[i]) }) {
			best = max(best, rec(i+1, append(slices.Clip(chosen), sets[i])))
		}
		return best
	}
	return rec(0, nil)
}

// TestInducedWalkMatchesBruteForce is the induced walk's oracle. On the
// handwritten sets (the running example among them), on random small
// labelled DAGs and on random multigraphs, whose roots join a pair by
// several edges, every connected node set of at most MaxNodes nodes is
// enumerated by brute force and grouped by the isomorphism class of its
// induced subgraph. The unpruned lexicographic walk must visit exactly
// the classes whose support reaches MinSupport, each once, with the
// class's node sets as its rows' node sets and that support as its own:
// under embedding support the maximum set of disjoint occurrences, under
// graph-count support the number of distinct graphs the class occurs in.
// Every row must be an induced embedding of the visited code. Under the
// greedy and size-limited independent-set solvers the walk's disjoint
// rows must equal the boxed reference solver's on the same rows.
func TestInducedWalkMatchesBruteForce(t *testing.T) {
	sets := testGraphSets()
	for i, graphs := range randomDAGSets(5, 30) {
		sets[fmt.Sprintf("random%02d", i)] = graphs
	}
	for i, graphs := range randomMultigraphSets(11, 20) {
		sets[fmt.Sprintf("multi%02d", i)] = graphs
	}
	names := make([]string, 0, len(sets))
	for name := range sets {
		names = append(names, name)
	}
	sort.Strings(names)
	configs := []Config{
		{MinSupport: 1, MaxNodes: 4, EmbeddingSupport: true},
		{MinSupport: 2, MaxNodes: 5, EmbeddingSupport: true},
		{MinSupport: 2, MaxNodes: 5, EmbeddingSupport: true, GreedyMIS: true},
		{MinSupport: 2, MaxNodes: 5, EmbeddingSupport: true, MISExactLimit: 2},
		{MinSupport: 1, MaxNodes: 4},
		{MinSupport: 2, MaxNodes: 5},
		{MinSupport: 3, MaxNodes: 5},
	}
	visits := 0
	for _, name := range names {
		graphs := sets[name]
		byID := map[int]*Graph{}
		for _, g := range graphs {
			byID[g.ID] = g
		}
		for _, cfg := range configs {
			cfg.Lexicographic = true
			exact := !cfg.GreedyMIS && cfg.MISExactLimit == 0
			// support is the class's support under the exact solver.
			support := graphCount
			if cfg.EmbeddingSupport {
				support = exactMIS
			}
			where := fmt.Sprintf("%s/emb=%v/minsup=%d/greedy=%v/limit=%d", name, cfg.EmbeddingSupport, cfg.MinSupport, cfg.GreedyMIS, cfg.MISExactLimit)
			want := bruteInducedGroups(graphs, cfg.MaxNodes)
			seen := map[string]bool{}
			Mine(graphs, cfg, func(p *Pattern) {
				visits++
				pg := p.Code.ToGraph()
				all := make([]int, len(pg.Labels))
				for i := range all {
					all[i] = i
				}
				form := inducedForm(pg, all)
				if seen[form] {
					t.Fatalf("%s: %s visited twice", where, p.Code)
				}
				seen[form] = true
				grp := want[form]
				if grp == nil {
					t.Fatalf("%s: %s is no induced subgraph of the input", where, p.Code)
				}
				var rows []string
				boxed := make([]*Embedding, p.Embeddings.Len())
				for i := range boxed {
					e := p.Embeddings.Emb(i)
					boxed[i] = &e
					validateInduced(t, where, pg, byID[e.GID], e)
					if r := fmt.Sprintf("%d:%v", e.GID, e.NodeSet()); !slices.Contains(rows, r) {
						rows = append(rows, r)
					}
				}
				sort.Strings(rows)
				if !slices.Equal(rows, grp.rows) {
					t.Fatalf("%s: %s has row node sets\n%v\nbrute force finds\n%v", where, p.Code, rows, grp.rows)
				}
				if exact {
					if m := support(grp.sets); p.Support != m {
						t.Fatalf("%s: %s support %d, brute force %d", where, p.Code, p.Support, m)
					}
				}
				if !cfg.EmbeddingSupport {
					return
				}
				ref := oldDisjointEmbeddings(boxed, cfg)
				if len(ref) != len(p.Disjoint) {
					t.Fatalf("%s: %s: %d disjoint rows, reference solver %d", where, p.Code, len(p.Disjoint), len(ref))
				}
				for i, e := range ref {
					if boxed[p.Disjoint[i]] != e {
						t.Fatalf("%s: %s: disjoint rows %v differ from the reference solver's", where, p.Code, p.Disjoint)
					}
				}
			})
			if !exact {
				continue
			}
			for form, grp := range want {
				if m := support(grp.sets); (m >= cfg.MinSupport) != seen[form] {
					t.Fatalf("%s: class %s (support %d) visited=%v", where, form, m, seen[form])
				}
			}
		}
	}
	t.Logf("%d visits checked", visits)
}

// validateInduced fails unless emb maps pat onto the subgraph of g its
// nodes induce: injective, labels equal, and the row's edges are exactly
// the edges of g among its nodes, each matching its pattern edge.
func validateInduced(t *testing.T, where string, pat, g *Graph, emb Embedding) {
	t.Helper()
	if len(emb.Nodes) != len(pat.Labels) || len(emb.Edges) != len(pat.Edges) {
		t.Fatalf("%s: row arity %d/%d, pattern %d/%d", where, len(emb.Nodes), len(emb.Edges), len(pat.Labels), len(pat.Edges))
	}
	in := map[int]bool{}
	for i, v := range emb.Nodes {
		if in[v] || g.Labels[v] != pat.Labels[i] {
			t.Fatalf("%s: row %v is not an injective label-preserving map", where, emb.Nodes)
		}
		in[v] = true
	}
	induced := 0
	for _, e := range g.Edges {
		if in[e.From] && in[e.To] {
			induced++
		}
	}
	if induced != len(emb.Edges) {
		t.Fatalf("%s: row %v maps %d edges, its nodes induce %d", where, emb.Nodes, len(emb.Edges), induced)
	}
	for i, pe := range pat.Edges {
		ge := g.Edges[emb.Edges[i]]
		if ge.From != emb.Nodes[pe.From] || ge.To != emb.Nodes[pe.To] || ge.Label != pe.Label {
			t.Fatalf("%s: row %v maps pattern edge %d onto %v", where, emb.Nodes, i, ge)
		}
	}
}
