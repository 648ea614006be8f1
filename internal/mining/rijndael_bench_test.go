package mining_test

// Lattice-walk benchmark on the paper's worst case: rijndael (§4.2
// reports Edgar needing 4h22m there). The workload is the real mining
// input — the per-block dependence graphs of the compiled benchmark —
// under the embedding-support search with a 20,000-visit budget.

import (
	"sync"
	"testing"

	"graphpa/internal/bench"
	"graphpa/internal/mining"
	"graphpa/internal/pa"
)

var rijndael = struct {
	once   sync.Once
	graphs []*mining.Graph
	err    error
}{}

func rijndaelGraphs(b testing.TB) []*mining.Graph {
	rijndael.once.Do(func() {
		w, err := bench.Build("rijndael", bench.DefaultCodegen())
		if err != nil {
			rijndael.err = err
			return
		}
		for _, g := range w.Graphs() {
			rijndael.graphs = append(rijndael.graphs, pa.MiningGraph(g, false))
		}
	})
	if rijndael.err != nil {
		b.Fatal(rijndael.err)
	}
	return rijndael.graphs
}

func BenchmarkMineRijndael(b *testing.B) {
	graphs := rijndaelGraphs(b)
	cfg := mining.Config{
		MinSupport:       2,
		MaxNodes:         8,
		EmbeddingSupport: true,
		MaxPatterns:      20000,
	}
	visited := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		visited = 0
		mining.Mine(graphs, cfg, func(p *mining.Pattern) { visited++ })
		if visited == 0 {
			b.Fatal("nothing mined")
		}
	}
	b.ReportMetric(float64(visited), "patterns")
}
