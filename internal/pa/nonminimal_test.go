package pa_test

import (
	"fmt"
	"testing"

	"graphpa/internal/pa"
)

// TestNonMinimalCountWidthInvariant pins RoundStat.NonMinimal to the
// walk: the per-round count of children rejected by the
// minimal-DFS-code test is nonzero, and the same at Workers 1 and 8 and
// without incremental reuse — fast-forwarded checkpoint subtrees charge
// their recorded count, as they charge their visits.
func TestNonMinimalCountWidthInvariant(t *testing.T) {
	for _, name := range []string{"crc", "sha"} {
		var want string
		for _, opts := range []pa.Options{{Workers: 1}, {Workers: 8}, {Workers: 1, NoIncremental: true}} {
			res := optimizeWorkload(t, name, opts)
			total := 0
			var trace []int
			for _, rs := range res.RoundStats {
				trace = append(trace, rs.Visits, rs.NonMinimal)
				total += rs.NonMinimal
			}
			if total == 0 {
				t.Fatalf("%s/w=%d/noinc=%v: no child rejected as non-minimal", name, opts.Workers, opts.NoIncremental)
			}
			got := fmt.Sprint(trace)
			if want == "" {
				want = got
				t.Logf("%s: %d non-minimal children (visits, non-minimal per round: %s)", name, total, got)
			} else if got != want {
				t.Fatalf("%s/w=%d/noinc=%v: (visits, non-minimal) per round %s, want %s as at w=1", name, opts.Workers, opts.NoIncremental, got, want)
			}
		}
	}
}
