package mining

import (
	"fmt"
	"strings"
	"testing"
)

// trace renders one visited pattern's full identity: code, support and
// every embedding (order included). Two runs are equivalent exactly when
// their trace sequences are equal.
func trace(p *Pattern) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s sup=%d dis=%v;", p.Code.Key(), p.Support, p.Disjoint)
	for i := 0; i < p.Embeddings.Len(); i++ {
		e := p.Embeddings.Emb(i)
		fmt.Fprintf(&b, " %d:%v|%v", e.GID, e.Nodes, e.Edges)
	}
	return b.String()
}

func mineTrace(graphs []*Graph, cfg Config) []string {
	var out []string
	Mine(graphs, cfg, func(p *Pattern) { out = append(out, trace(p)) })
	return out
}

func assertSameTrace(t *testing.T, name string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: want %d visited patterns, got %d", name, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: visit %d differs:\nwant: %s\ngot:  %s", name, i, want[i], got[i])
		}
	}
}

// testGraphSets returns graph databases with distinct lattice shapes.
func testGraphSets() map[string][]*Graph {
	var big []*Graph
	for i := 0; i < 6; i++ {
		big = append(big, runningExample(i))
	}
	return map[string][]*Graph{
		"chains": {
			chain(0, "e", "ldr", "sub", "add", "str"),
			chain(1, "e", "ldr", "sub", "add", "str"),
			chain(2, "e", "mov", "cmp", "add"),
			chain(3, "e", "mov", "cmp", "add"),
		},
		"running-example": {runningExample(0), runningExample(1)},
		"replicated":      big,
	}
}
