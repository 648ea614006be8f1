package pa_test

import (
	"testing"

	"graphpa/internal/pa"
)

// TestCheckpointReuseAcrossRounds pins that the lattice memo is one store
// shared by every round's walk: round 1's completed walk leaves records
// that round 2's walk fast-forwards. On rijndael's first two rounds under
// a 10k budget, round 2 replays 48 visits from round 1's records.
func TestCheckpointReuseAcrossRounds(t *testing.T) {
	res := optimizeWorkload(t, "rijndael", pa.Options{MaxRounds: 2, MaxPatterns: 10_000})
	if len(res.RoundStats) < 2 {
		t.Fatalf("ran %d rounds, want 2", len(res.RoundStats))
	}
	if rs := res.RoundStats[1]; rs.VisitsSaved == 0 {
		t.Errorf("round 2 fast-forwarded no visits (memo hits %d); the checkpoint memo did not carry round 1's records", rs.MemoHits)
	}
}
