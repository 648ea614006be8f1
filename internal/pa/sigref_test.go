package pa

// Equivalence, allocation and benchmark guards for the fragment-sized
// occurrence validation: the incident-edge, fmt-free InducedSignature and
// the scratch-reusing, range-bounded convexity check.
// oldInducedSignature and oldConvexOK are the previous implementations,
// kept verbatim as references. The signature encodings differ byte-wise,
// but the equivalence relation they induce on occurrences — which
// embeddings may share one outlined body — must be exactly the same.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"graphpa/internal/arm"
	"graphpa/internal/cfg"
	"graphpa/internal/codegen"
	"graphpa/internal/dfg"
	"graphpa/internal/link"
	"graphpa/internal/loader"
	"graphpa/internal/mining"
)

// oldInducedSignature is the reference rendering (verbatim).
func oldInducedSignature(o *Occurrence) string {
	pos := make(map[int]int, len(o.DFS)) // instruction index -> dfs index
	for di, n := range o.DFS {
		pos[n] = di
	}
	var b strings.Builder
	for _, n := range o.DFS {
		b.WriteString(o.Graph.Block.Instrs[n].String())
		b.WriteByte('\n')
	}
	type sigEdge struct {
		i, j int
		kind dfg.DepKind
		reg  arm.Reg
	}
	var edges []sigEdge
	for _, e := range o.Graph.Edges {
		di, ok1 := pos[e.From]
		dj, ok2 := pos[e.To]
		if ok1 && ok2 {
			edges = append(edges, sigEdge{di, dj, e.Kind, e.Reg})
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].i != edges[b].i {
			return edges[a].i < edges[b].i
		}
		if edges[a].j != edges[b].j {
			return edges[a].j < edges[b].j
		}
		if edges[a].kind != edges[b].kind {
			return edges[a].kind < edges[b].kind
		}
		return edges[a].reg < edges[b].reg
	})
	for _, e := range edges {
		fmt.Fprintf(&b, "%d>%d:%d:%d\n", e.i, e.j, e.kind, e.reg)
	}
	return b.String()
}

// oldConvexOK is the reference convexity check (verbatim).
func oldConvexOK(g *dfg.Graph, nodes []int) bool {
	n := g.N()
	inFrag := make([]bool, n)
	for _, v := range nodes {
		inFrag[v] = true
	}
	// DFS from every external successor of the fragment, walking only
	// external nodes; reaching a node with an edge back into the fragment
	// means a cycle.
	visited := make([]bool, n)
	var stack []int
	for _, v := range nodes {
		for _, s := range g.Succs(v) {
			if !inFrag[s] && !visited[s] {
				visited[s] = true
				stack = append(stack, s)
			}
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Succs(v) {
			if inFrag[s] {
				return false
			}
			if !visited[s] {
				visited[s] = true
				stack = append(stack, s)
			}
		}
	}
	return true
}

// benchProgramNames are the eight benchmark programs under
// internal/bench/programs (this package cannot import internal/bench,
// which imports it).
var benchProgramNames = []string{"bitcnts", "crc", "dijkstra", "patricia", "qsort", "rijndael", "search", "sha"}

// benchRoundOneGraphs compiles a benchmark program with the default
// benchmark code generator and returns its round-1 dependence graphs,
// labels memoised as the cross-round graph cache does.
func benchRoundOneGraphs(tb testing.TB, name string) []*dfg.Graph {
	tb.Helper()
	view := cfg.Build(benchProgram(tb, name))
	summaries := CallSummaries(view)
	graphs := make([]*dfg.Graph, len(view.Blocks))
	for i, b := range view.Blocks {
		graphs[i] = dfg.Build(b, summaries)
		graphs[i].MemoLabels()
	}
	return graphs
}

// benchProgram compiles and links a benchmark program with the default
// benchmark code generator.
func benchProgram(tb testing.TB, name string) *loader.Program {
	tb.Helper()
	src, err := os.ReadFile(filepath.Join("..", "bench", "programs", name+".mc"))
	if err != nil {
		tb.Fatal(err)
	}
	unit, err := codegen.Compile(string(src), codegen.Options{Optimize: true, Schedule: true})
	if err != nil {
		tb.Fatal(err)
	}
	rt, err := link.RuntimeUnit()
	if err != nil {
		tb.Fatal(err)
	}
	img, err := link.Link(unit, rt)
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := loader.Load(img)
	if err != nil {
		tb.Fatal(err)
	}
	return prog
}

// sigClasses checks that two signature functions partition occs
// identically: each old class maps to exactly one new class and back.
// It returns the number of classes with more than one member, so callers
// can require the comparison to have exercised real matches.
func sigClasses(t *testing.T, what string, occs []Occurrence) int {
	t.Helper()
	oldToNew := map[string]string{}
	newToOld := map[string]string{}
	size := map[string]int{}
	for i := range occs {
		o, n := oldInducedSignature(&occs[i]), occs[i].InducedSignature()
		if prev, ok := oldToNew[o]; ok && prev != n {
			t.Fatalf("%s: occurrence %v (DFS %v) is old-equal to an earlier one but new-different", what, occs[i].Block.ID, occs[i].DFS)
		}
		if prev, ok := newToOld[n]; ok && prev != o {
			t.Fatalf("%s: occurrence %v (DFS %v) is new-equal to an earlier one but old-different", what, occs[i].Block.ID, occs[i].DFS)
		}
		oldToNew[o], newToOld[n] = n, o
		size[o]++
	}
	shared := 0
	for _, c := range size {
		if c > 1 {
			shared++
		}
	}
	return shared
}

// TestInducedSignatureMatchesReference pins the equivalence relation on
// the real benchmark DFGs: every contiguous window of k = 2..8
// instructions (in order and reversed), and seeded random shapes — a
// node-offset set in a random DFS order — placed at every position of
// every block, so equal-text placements in different blocks and repeats
// within one block meet each other.
func TestInducedSignatureMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	shapes := 24
	if testing.Short() {
		shapes = 6
	}
	for _, name := range benchProgramNames {
		graphs := benchRoundOneGraphs(t, name)
		shared := 0
		for k := 2; k <= 8; k++ {
			for _, reversed := range []bool{false, true} {
				var occs []Occurrence
				for _, g := range graphs {
					for s := 0; s+k <= g.N(); s++ {
						dfs := make([]int, k)
						for i := range dfs {
							dfs[i] = s + i
							if reversed {
								dfs[i] = s + k - 1 - i
							}
						}
						occs = append(occs, Occurrence{Block: g.Block, Graph: g, Nodes: sortedNodes(dfs), DFS: dfs})
					}
				}
				shared += sigClasses(t, fmt.Sprintf("%s/window k=%d reversed=%v", name, k, reversed), occs)
			}
		}
		for si := 0; si < shapes; si++ {
			// Distinct offsets within a span of up to 12, in random order.
			k := 2 + rng.Intn(7)
			span := k + rng.Intn(5)
			offs := rng.Perm(span)[:k]
			var occs []Occurrence
			for _, g := range graphs {
				for s := 0; s+span <= g.N(); s++ {
					dfs := make([]int, k)
					for i, off := range offs {
						dfs[i] = s + off
					}
					occs = append(occs, Occurrence{Block: g.Block, Graph: g, Nodes: sortedNodes(dfs), DFS: dfs})
				}
			}
			shared += sigClasses(t, fmt.Sprintf("%s/shape %v", name, offs), occs)
		}
		if shared == 0 {
			t.Errorf("%s: no two occurrences shared a signature; the comparison exercised nothing", name)
		}
	}
}

// TestConvexOKMatchesReference runs one convexScratch across seeded
// random fragments of every block of three benchmark programs — graphs
// of different sizes in turn, so the marks grow and the epochs advance —
// and requires the reference verdict every time, with both outcomes
// seen.
func TestConvexOKMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sc convexScratch
	verdicts := map[bool]int{}
	for _, name := range []string{"crc", "sha", "rijndael"} {
		for _, g := range benchRoundOneGraphs(t, name) {
			for trial := 0; trial < 20 && g.N() >= 2; trial++ {
				k := 2 + rng.Intn(min(7, g.N()-1))
				nodes := sortedNodes(rng.Perm(g.N())[:k])
				got, want := sc.convexOK(g, nodes), oldConvexOK(g, nodes)
				if got != want {
					t.Fatalf("%s block %d nodes %v: convexOK = %v, reference %v", name, g.Block.ID, nodes, got, want)
				}
				verdicts[got]++
			}
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("verdicts %v: both outcomes must be exercised", verdicts)
	}
}

// TestInducedSignatureAllocs guards the fragment-sized cost: one
// signature of a mined-size fragment costs at most two allocations (the
// returned string, plus slack for a spilled scratch buffer).
func TestInducedSignatureAllocs(t *testing.T) {
	graphs := benchRoundOneGraphs(t, "rijndael")
	var g *dfg.Graph
	for _, c := range graphs {
		if g == nil || c.N() > g.N() {
			g = c
		}
	}
	dfs := []int{7, 3, 4, 0, 6, 1, 5, 2}
	o := Occurrence{Block: g.Block, Graph: g, Nodes: sortedNodes(dfs), DFS: dfs}
	if a := testing.AllocsPerRun(100, func() { _ = o.InducedSignature() }); a > 2 {
		t.Errorf("InducedSignature: %.1f allocs per call, want <= 2", a)
	}
}

var candSink *Candidate

// BenchmarkBuildCandidate validates real mined embedding sets: the first
// round of rijndael's lattice walk (embedding support, default fragment
// cap), every pattern with at least two disjoint embeddings, each built
// with no incumbent to beat so the full occurrence filter runs.
func BenchmarkBuildCandidate(b *testing.B) {
	graphs := benchRoundOneGraphs(b, "rijndael")
	m := &GraphMiner{Embedding: true}
	byID := map[int]*dfg.Graph{}
	safe := callSafeCache{}
	var mgs []*mining.Graph
	for _, g := range graphs {
		byID[g.Block.ID] = g
		safe.get(g.Block.Fn)
		mgs = append(mgs, MiningGraph(g, false))
	}
	type sample struct {
		set *mining.EmbSet
		sel []int32
		k   int
	}
	var samples []sample
	mcfg := mining.Config{MinSupport: 2, MaxNodes: 8, EmbeddingSupport: true, MaxPatterns: 3000}
	mining.Mine(mgs, mcfg, func(p *mining.Pattern) {
		if k := p.Code.NumNodes(); k >= 2 && len(p.Disjoint) >= 2 {
			samples = append(samples, sample{p.Embeddings, append([]int32(nil), p.Disjoint...), k})
		}
	})
	if len(samples) == 0 {
		b.Fatal("no patterns to validate")
	}
	var conv convexScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range samples {
			candSink = m.buildCandidate(byID, s.set, s.sel, s.k, safe, 0, &conv)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(samples)), "ns/cand")
}
