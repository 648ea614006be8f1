package pa_test

// Differential proof of the incremental driver: the default loop, which
// carries the program view, dependence graphs and mining graphs across
// rounds, must be byte-identical to the rebuild reference
// arm, which rebuilds all of them every round — same report, same
// extraction sequence, same per-round walk, same re-linked binary — on
// every benchmark. Short mode keeps the two fastest programs.

import (
	"testing"

	"graphpa/internal/bench"
	"graphpa/internal/core"
	"graphpa/internal/pa"
)

// rebuildMaxPatterns caps every round far above any edgar walk on the
// suite (rijndael's largest round is 2,407 visits), so a change that
// stops the unextractable-fragment prune still finishes in CI time.
const rebuildMaxPatterns = 30000

// TestIncrementalMatchesScratch: for every benchmark, the incremental
// run must agree with the rebuild reference on the full report (rounds,
// instruction counts, the exact extraction sequence), walk the same
// per-round Visits, NonMinimal and Unextractable counts and SeqBuilds, and produce a
// byte-identical re-linked image that behaves like the unoptimized
// original under the emulator. The reference must really start from
// scratch every round: every block rebuilt.
func TestIncrementalMatchesScratch(t *testing.T) {
	names := bench.Names
	if testing.Short() {
		names = []string{"crc", "search"}
	}
	m, err := core.MinerByName("edgar")
	if err != nil {
		t.Fatal(err)
	}
	opts := pa.Options{MaxPatterns: rebuildMaxPatterns}
	for _, n := range names {
		w, err := bench.Build(n, bench.DefaultCodegen())
		if err != nil {
			t.Fatal(err)
		}
		a, aImg, err := core.Optimize(w.Image, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, bImg, err := core.Optimize(w.Image, m, pa.Rebuild(opts))
		if err != nil {
			t.Fatal(err)
		}
		if a.Before != b.Before || a.After != b.After || a.Rounds != b.Rounds {
			t.Errorf("%s: totals diverge: incremental %d->%d in %d rounds, scratch %d->%d in %d rounds",
				n, a.Before, a.After, a.Rounds, b.Before, b.After, b.Rounds)
			continue
		}
		if len(a.Extractions) != len(b.Extractions) {
			t.Errorf("%s: %d incremental extractions vs %d from scratch", n, len(a.Extractions), len(b.Extractions))
			continue
		}
		for i := range a.Extractions {
			if a.Extractions[i] != b.Extractions[i] {
				t.Errorf("%s: extraction %d diverges:\nincremental: %+v\nscratch:     %+v",
					n, i, a.Extractions[i], b.Extractions[i])
			}
		}
		if aImg.Hash() != bImg.Hash() {
			t.Errorf("%s: incremental and from-scratch images differ", n)
		}
		if err := core.VerifyEquivalent(w.Image, aImg, nil); err != nil {
			t.Errorf("%s: optimized binary diverges: %v", n, err)
		}
		if len(a.RoundStats) != len(b.RoundStats) {
			t.Errorf("%s: %d incremental round stats vs %d from scratch", n, len(a.RoundStats), len(b.RoundStats))
			continue
		}
		for i, rs := range a.RoundStats {
			want := b.RoundStats[i]
			if rs.Visits != want.Visits || rs.NonMinimal != want.NonMinimal || rs.Unextractable != want.Unextractable || rs.SeqBuilds != want.SeqBuilds {
				t.Errorf("%s: round %d walks %d visits, %d non-minimal, %d unextractable, %d sequence builds; scratch %d, %d, %d, %d",
					n, rs.Round, rs.Visits, rs.NonMinimal, rs.Unextractable, rs.SeqBuilds, want.Visits, want.NonMinimal, want.Unextractable, want.SeqBuilds)
			}
			if want.BlocksRebuilt != want.Blocks || rs.Blocks != want.Blocks {
				t.Errorf("%s: round %d: scratch rebuilt %d of %d blocks (incremental view: %d blocks)",
					n, rs.Round, want.BlocksRebuilt, want.Blocks, rs.Blocks)
			}
		}
	}
}
