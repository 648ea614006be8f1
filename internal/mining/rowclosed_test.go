package mining

import (
	"slices"
	"testing"
)

// TestRowClosedCut checks the walk's closed-row cut against the unpruned
// walk on random DAG sets, under a monotone predicate (a row is closed
// when it maps a node of a fixed "bad" set). A pattern is visited
// exactly when the unpruned walk visits it and one of its rows is open,
// and every row's inherited closed bit equals the predicate on the row
// itself.
func TestRowClosedCut(t *testing.T) {
	bad := func(gid int, nodes []int32) bool {
		return slices.ContainsFunc(nodes, func(v int32) bool { return (int(v)+gid)%4 == 1 })
	}
	cuts := 0
	for si, graphs := range randomDAGSets(11, 30) {
		for _, emb := range []bool{false, true} {
			cfg := Config{MinSupport: 2, MaxNodes: 5, EmbeddingSupport: emb}
			want := map[string]bool{}
			Mine(graphs, cfg, func(p *Pattern) {
				for i := 0; i < p.Embeddings.Len(); i++ {
					if !bad(p.Embeddings.GID(i), p.Embeddings.Nodes(i)) {
						want[p.Code.Key()] = true
						return
					}
				}
			})
			cfg.RowClosed = bad
			var counts WalkCounts
			cfg.NoteCounts = func(c WalkCounts) { counts = c }
			got := 0
			Mine(graphs, cfg, func(p *Pattern) {
				got++
				if !want[p.Code.Key()] {
					t.Fatalf("set %d (embedding=%v): visited %s, whose rows are all closed", si, emb, p.Code)
				}
				for i := 0; i < p.Embeddings.Len(); i++ {
					if c := bad(p.Embeddings.GID(i), p.Embeddings.Nodes(i)); p.Embeddings.Closed(i) != c {
						t.Fatalf("set %d (embedding=%v): %s row %d closed bit %v, predicate %v",
							si, emb, p.Code, i, p.Embeddings.Closed(i), c)
					}
				}
			})
			if got != len(want) {
				t.Fatalf("set %d (embedding=%v): visited %d patterns, want the %d with an open row", si, emb, got, len(want))
			}
			cuts += counts.Unextractable
		}
	}
	if cuts == 0 {
		t.Fatal("the predicate never cut a root or child")
	}
}
