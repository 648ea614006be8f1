package pa

import (
	"testing"

	"graphpa/internal/dfg"
	"graphpa/internal/mining"
)

// newTestCheckpointer returns a checkpointer over two placeholder graphs
// (footprintOK compares graph objects, not their content) and a pattern
// with one embedding in each.
func newTestCheckpointer() (*checkpointer, *mining.Pattern) {
	g1, g2 := &dfg.Graph{}, &dfg.Graph{}
	s := &search{}
	s.ck = &checkpointer{
		s:    s,
		memo: newLatticeMemo(),
		byID: map[int]*dfg.Graph{1: g1, 2: g2},
		safe: map[*dfg.Graph]bool{g1: true, g2: true},
	}
	p := &mining.Pattern{
		Code: mining.Code{{I: 0, J: 1, LI: "add", LJ: "str", Out: true, LE: "raw"}},
		Embeddings: mining.NewEmbSet([]*mining.Embedding{
			{GID: 1, Nodes: []int{0, 1}, Edges: []int{0}},
			{GID: 2, Nodes: []int{3, 4}, Edges: []int{2}},
		}),
	}
	return s.ck, p
}

// TestCheckpointAdmittingSubtreeEvictsRecord: a subtree that admits a
// candidate leaves no record, and evicts the record an earlier walk
// stored under the same code, so a later round re-walks it live.
func TestCheckpointAdmittingSubtreeEvictsRecord(t *testing.T) {
	ck, p := newTestCheckpointer()
	key := p.Code.Key()

	// Round 1: the subtree admits nothing and is recorded.
	tok := ck.Begin(p)
	ck.noteBest(3, false)
	ck.End(tok, 5, 1, false)
	if ck.memo.recs[key] == nil {
		t.Fatal("a subtree without admissions left no record")
	}

	// Round 2: the same subtree admits a candidate.
	tok = ck.Begin(p)
	ck.s.admit(&Candidate{Benefit: 4})
	ck.End(tok, 5, 1, false)
	if rec := ck.memo.recs[key]; rec != nil {
		t.Fatalf("an admitting subtree left a record (%d visits, region [%d, %d))", rec.visits, rec.bestLo, rec.bestHi)
	}
	if _, _, ok := ck.FastForward(p, -1); ok {
		t.Fatal("fast-forwarded a subtree whose record the admitting walk evicted")
	}

	// A truncated walk keeps the record it could not replace.
	tok = ck.Begin(p)
	ck.End(tok, 2, 0, false)
	tok = ck.Begin(p)
	ck.s.admit(&Candidate{Benefit: 5})
	ck.End(tok, 1, 0, true)
	if ck.memo.recs[key] == nil {
		t.Fatal("a truncated walk evicted the key's record")
	}
}

// TestCheckpointRegionReplay: a record replays only while the incumbent
// lies inside the half-open region [bestLo, bestHi) its comparisons
// pinned, and a replay narrows the enclosing open records to it.
func TestCheckpointRegionReplay(t *testing.T) {
	ck, p := newTestCheckpointer()
	ck.s.bestBen = 6
	tok := ck.Begin(p)
	ck.noteBest(5, true)  // 5 < best held: best >= 6
	ck.noteBest(9, false) // 9 < best failed: best < 10
	ck.End(tok, 7, 2, false)
	rec := ck.memo.recs[p.Code.Key()]
	if rec == nil || rec.bestLo != 6 || rec.bestHi != 10 {
		t.Fatalf("record %+v, want region [6, 10)", rec)
	}
	for best := 4; best <= 11; best++ {
		ck.s.bestBen = best
		v, nm, ok := ck.FastForward(p, -1)
		if want := best >= 6 && best < 10; ok != want {
			t.Errorf("best %d: replayed %v, want %v", best, ok, want)
		} else if ok && (v != 7 || nm != 2) {
			t.Errorf("best %d: replay charged %d visits and %d non-minimal, want 7 and 2", best, v, nm)
		}
	}
	ck.s.bestBen = 8
	if _, _, ok := ck.FastForward(p, 6); ok {
		t.Error("replayed a 7-visit subtree into a 6-visit budget")
	}

	// A replay inside an open record carries its region outward.
	outer := &mining.Pattern{Code: p.Code[:0], Embeddings: p.Embeddings}
	otok := ck.Begin(outer)
	if _, _, ok := ck.FastForward(p, -1); !ok {
		t.Fatal("no replay at best 8")
	}
	if r := otok.(*recBuilder).rec; r.bestLo != 6 || r.bestHi != 10 {
		t.Errorf("enclosing record's region [%d, %d), want [6, 10)", r.bestLo, r.bestHi)
	}
}
