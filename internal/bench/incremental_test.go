package bench

// The incremental driver's cache effectiveness on a real workload; its
// byte-identity against the rebuild reference arm is
// TestIncrementalMatchesScratch in internal/pa.

import (
	"testing"

	"graphpa/internal/pa"
)

// TestIncrementalCacheEffectiveness: on a multi-round benchmark, rounds
// after the first must reuse every dependence graph of untouched
// functions — RebuiltClean, the over-invalidation counter, stays zero —
// and actually reuse dependence graphs. This is the quantitative half of
// the differential test: identical output AND strictly less work.
func TestIncrementalCacheEffectiveness(t *testing.T) {
	w, err := Build("crc", DefaultCodegen())
	if err != nil {
		t.Fatal(err)
	}
	res := pa.Optimize(w.Prog, &pa.GraphMiner{Embedding: true}, pa.Options{})
	if res.Rounds < 2 {
		t.Fatalf("crc expected to take multiple rounds, got %d", res.Rounds)
	}
	if len(res.RoundStats) != res.Rounds+1 {
		// Fixpoint runs record every applying round plus the final probe.
		t.Fatalf("expected %d round stats (rounds + probe), got %d", res.Rounds+1, len(res.RoundStats))
	}
	reused := 0
	for _, rs := range res.RoundStats[1:] {
		if rs.RebuiltClean != 0 {
			t.Errorf("round %d: %d clean-block rebuilds (dirty-set over-invalidation)", rs.Round, rs.RebuiltClean)
		}
		if rs.BlocksReused+rs.BlocksRebound == 0 {
			t.Errorf("round %d: no dependence graphs reused", rs.Round)
		}
		reused += rs.BlocksReused
	}
	if reused == 0 {
		t.Error("no object-identical graph reuse across any round")
	}
	for _, rs := range res.RoundStats {
		if rs.Blocks != rs.BlocksReused+rs.BlocksRebound+rs.BlocksRebuilt {
			t.Errorf("round %d: block accounting inconsistent: %d != %d+%d+%d",
				rs.Round, rs.Blocks, rs.BlocksReused, rs.BlocksRebound, rs.BlocksRebuilt)
		}
	}
}
