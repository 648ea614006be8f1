package mining_test

import (
	"sync"
	"testing"

	"graphpa/internal/bench"
	"graphpa/internal/mining"
	"graphpa/internal/pa"
)

// benchGraphs returns the mining graphs of one benchmark program after
// rounds extraction rounds of edgar (0 = the round-1 input).
func benchGraphs(tb testing.TB, name string, rounds int) []*mining.Graph {
	tb.Helper()
	w, err := bench.Build(name, bench.DefaultCodegen())
	if err != nil {
		tb.Fatal(err)
	}
	if rounds > 0 {
		res := pa.Optimize(w.Prog, &pa.GraphMiner{Embedding: true}, pa.Options{MaxRounds: rounds, Workers: 1})
		w = &bench.Workload{Name: name, Prog: res.Program}
	}
	var out []*mining.Graph
	for _, g := range w.Graphs() {
		out = append(out, pa.MiningGraph(g, false))
	}
	return out
}

// walkConfig is edgar's lattice walk cut after visits patterns.
func walkConfig(visits int) mining.Config {
	return mining.Config{MinSupport: 2, MaxNodes: 8, EmbeddingSupport: true, MaxPatterns: visits}
}

// TestIsMinimalMatchesBoxedBench compares IsMinimal with the boxed
// reference on every child code, minimal or not, that the first visits
// of each benchmark's round-1 lattice generate.
func TestIsMinimalMatchesBoxedBench(t *testing.T) {
	visits := 2000
	if testing.Short() {
		visits = 500
	}
	for _, name := range bench.Names {
		graphs := benchGraphs(t, name, 0)
		probe := mining.NewGroupProbe(graphs, 2)
		verdicts := map[bool]int{}
		mining.Mine(graphs, walkConfig(visits), func(p *mining.Pattern) {
			for _, c := range probe.Children(p.Code, p.Embeddings) {
				got, want := c.IsMinimal(), mining.OldIsMinimal(c)
				if got != want {
					t.Fatalf("%s: IsMinimal(%s) = %v, reference %v", name, c, got, want)
				}
				verdicts[got]++
			}
		})
		t.Logf("%s: %d minimal, %d non-minimal child codes", name, verdicts[true], verdicts[false])
		if verdicts[true] == 0 || verdicts[false] == 0 {
			t.Errorf("%s: verdicts %v: both outcomes must be exercised", name, verdicts)
		}
	}
}

// shaRound2 is sha's round-2 lattice sample, shared by the benchmarks
// below: the first visited patterns and the child codes they generate.
var shaRound2 struct {
	once   sync.Once
	graphs []*mining.Graph
	pats   []*mining.Pattern
	codes  []mining.Code
}

func shaRound2Lattice(b *testing.B) {
	shaRound2.once.Do(func() {
		shaRound2.graphs = benchGraphs(b, "sha", 1)
		probe := mining.NewGroupProbe(shaRound2.graphs, 2)
		mining.Mine(shaRound2.graphs, walkConfig(3000), func(p *mining.Pattern) {
			shaRound2.pats = append(shaRound2.pats, p)
			shaRound2.codes = append(shaRound2.codes, probe.Children(p.Code, p.Embeddings)...)
		})
	})
	if len(shaRound2.codes) == 0 || len(shaRound2.pats) == 0 {
		b.Fatal("empty sha round-2 lattice sample")
	}
}

var minimalSink bool

// BenchmarkIsMinimal runs the minimality test over sha's round-2 child
// codes.
func BenchmarkIsMinimal(b *testing.B) {
	shaRound2Lattice(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range shaRound2.codes {
			minimalSink = c.IsMinimal()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(shaRound2.codes)), "ns/code")
}

// BenchmarkExtendGroups runs extension grouping over sha's round-2
// visited patterns.
func BenchmarkExtendGroups(b *testing.B) {
	shaRound2Lattice(b)
	probe := mining.NewGroupProbe(shaRound2.graphs, 2)
	groups := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups = 0
		for _, p := range shaRound2.pats {
			groups += probe.Groups(p.Code, p.Embeddings)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(shaRound2.pats)), "ns/pattern")
	b.ReportMetric(float64(groups), "groups")
}
