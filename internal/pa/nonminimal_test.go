package pa_test

import (
	"fmt"
	"testing"

	"graphpa/internal/pa"
)

// TestNonMinimalCountWidthInvariant pins RoundStat.NonMinimal to the
// walk: the per-round count of children rejected by the
// minimal-DFS-code test is nonzero, and the same with and without
// cross-round reuse.
func TestNonMinimalCountWidthInvariant(t *testing.T) {
	for _, name := range []string{"crc", "sha"} {
		var want string
		for _, rebuild := range []bool{false, true} {
			opts := pa.Options{}
			if rebuild {
				opts = pa.Rebuild(opts)
			}
			res := optimizeWorkload(t, name, opts)
			total := 0
			var trace []int
			for _, rs := range res.RoundStats {
				trace = append(trace, rs.Visits, rs.NonMinimal)
				total += rs.NonMinimal
			}
			if total == 0 {
				t.Fatalf("%s/rebuild=%v: no child rejected as non-minimal", name, rebuild)
			}
			got := fmt.Sprint(trace)
			if want == "" {
				want = got
				t.Logf("%s: %d non-minimal children (visits, non-minimal per round: %s)", name, total, got)
			} else if got != want {
				t.Fatalf("%s/rebuild=%v: (visits, non-minimal) per round %s, want %s as with reuse", name, rebuild, got, want)
			}
		}
	}
}
