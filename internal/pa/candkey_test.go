package pa_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"graphpa/internal/bench"
	"graphpa/internal/cfg"
	"graphpa/internal/dfg"
	"graphpa/internal/pa"
)

// fmtCandKey is the fmt-built form of the candidate key: the reference
// the allocation-light candKey must reproduce byte for byte, because the
// keys order benefit ties in mergeCandidates.
func fmtCandKey(c *pa.Candidate) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s#%d", c.Method, c.Size)
	for i := range c.Occs {
		o := &c.Occs[i]
		fmt.Fprintf(&b, "|%d:", o.Block.ID)
		for j, n := range o.DFS {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", n)
		}
	}
	return b.String()
}

// TestCandKeyMatchesFmtReference compares candKey with the fmt reference
// on every candidate of each benchmark's round-1 list — the whole mined
// tie set plus the sequence seeds, with no batch limit — for both graph
// miners.
func TestCandKeyMatchesFmtReference(t *testing.T) {
	for _, name := range bench.Names {
		w, err := bench.Build(name, bench.DefaultCodegen())
		if err != nil {
			t.Fatal(err)
		}
		view := cfg.Build(w.Prog)
		sums := pa.CallSummaries(view)
		graphs := make([]*dfg.Graph, len(view.Blocks))
		for i, b := range view.Blocks {
			graphs[i] = dfg.Build(b, sums)
		}
		for _, m := range []*pa.GraphMiner{{Embedding: true}, {}} {
			cands := m.FindCandidates(view, graphs, pa.WithBatch(pa.Options{}, math.MaxInt))
			if len(cands) == 0 {
				t.Fatalf("%s/%s: no round-1 candidates", name, m.Name())
			}
			for _, c := range cands {
				if got, want := pa.CandKey(c), fmtCandKey(c); got != want {
					t.Fatalf("%s/%s: candKey %q, fmt reference %q", name, m.Name(), got, want)
				}
			}
			t.Logf("%s/%s: %d candidates", name, m.Name(), len(cands))
		}
	}
}
