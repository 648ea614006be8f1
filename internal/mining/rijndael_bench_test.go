package mining_test

// Lattice-walk benchmark on the paper's worst case: rijndael (§4.2
// reports Edgar needing 4h22m there). The workload is the real mining
// input — the per-block dependence graphs of the compiled benchmark —
// under the embedding-support search with a 20,000-visit budget.

import (
	"testing"

	"graphpa/internal/mining"
)

func BenchmarkMineRijndael(b *testing.B) {
	graphs := benchGraphs(b, "rijndael", 0)
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
