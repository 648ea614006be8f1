package pa

import (
	"testing"
)

// TestSingleVsBatchedEquivalentSavings: the batched driver must land in
// the same ballpark as the paper's strict loop on a structured input
// (identical here, where candidates do not interact).
func TestSingleVsBatchedEquivalentSavings(t *testing.T) {
	single := Optimize(loadSrc(t, reorderSrc), &GraphMiner{Embedding: true}, Options{SingleExtract: true})
	batched := Optimize(loadSrc(t, reorderSrc), &GraphMiner{Embedding: true}, Options{})
	if single.Saved() != batched.Saved() {
		t.Errorf("single=%d batched=%d", single.Saved(), batched.Saved())
	}
	if batched.Rounds > single.Rounds {
		t.Errorf("batching used more rounds (%d) than single (%d)", batched.Rounds, single.Rounds)
	}
	c1, o1 := runProg(t, single.Program)
	c2, o2 := runProg(t, batched.Program)
	if c1 != c2 || o1 != o2 {
		t.Error("modes disagree on behaviour")
	}
}

// TestGreedyMISNeverBeatsExact on a program with overlapping embeddings.
func TestGreedyMISOption(t *testing.T) {
	exact := Optimize(loadSrc(t, reorderSrc), &GraphMiner{Embedding: true}, Options{})
	greedy := Optimize(loadSrc(t, reorderSrc), &GraphMiner{Embedding: true}, Options{GreedyMIS: true})
	if greedy.Saved() > exact.Saved() {
		t.Errorf("greedy MIS (%d) beat exact (%d)?", greedy.Saved(), exact.Saved())
	}
	// both must still be sound
	runProg(t, greedy.Program)
}

// TestMaxPatternsTruncationSound: even a tiny pattern budget must yield a
// correct (if less optimized) binary.
func TestMaxPatternsTruncationSound(t *testing.T) {
	res := Optimize(loadSrc(t, reorderSrc), &GraphMiner{Embedding: true}, Options{MaxPatterns: 10})
	wantCode, wantOut := runProg(t, loadSrc(t, reorderSrc))
	gotCode, gotOut := runProg(t, res.Program)
	if gotCode != wantCode || gotOut != wantOut {
		t.Error("truncated search broke the program")
	}
}

// TestRoundStatTruncated: a round whose walk stops at the pattern budget
// is flagged, and the same round walked to completion is not.
func TestRoundStatTruncated(t *testing.T) {
	m := &GraphMiner{Embedding: true}
	full := Optimize(loadSrc(t, orderTestSrc), m, Options{MaxRounds: 1})
	rs := full.RoundStats[0]
	if rs.Truncated || rs.Visits < 2 {
		t.Fatalf("complete round: %d visits, truncated %v", rs.Visits, rs.Truncated)
	}
	cut := Optimize(loadSrc(t, orderTestSrc), m, Options{MaxRounds: 1, MaxPatterns: rs.Visits - 1})
	if got := cut.RoundStats[0]; !got.Truncated || got.Visits != rs.Visits-1 {
		t.Errorf("round cut at %d patterns: %d visits, truncated %v", rs.Visits-1, got.Visits, got.Truncated)
	}
}
