package pa_test

// Heavy A/B of the benefit-directed lattice walk against the
// lexicographic reference on the paper's real workloads. Lives here (as
// an external test of internal/pa) rather than in internal/bench: the
// bench package's suite already runs close to the per-package timeout,
// and these runs optimize full benchmarks several times each. Everything
// in this file is skipped under -short.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"graphpa/internal/bench"
	"graphpa/internal/pa"
)

func optimizeWorkload(t *testing.T, name string, opts pa.Options) *pa.Result {
	t.Helper()
	w, err := bench.Build(name, bench.DefaultCodegen())
	if err != nil {
		t.Fatal(err)
	}
	return pa.Optimize(w.Prog, &pa.GraphMiner{Embedding: true}, opts)
}

func resultFingerprint(res *pa.Result) string {
	s := res.Program.String()
	s += fmt.Sprintf("rounds=%d saved=%d\n", res.Rounds, res.Saved())
	for _, e := range res.Extractions {
		s += fmt.Sprintf("%s %s k=%d m=%d ben=%d\n", e.Name, e.Method, e.Size, e.Occs, e.Benefit)
	}
	return s
}

// totalVisits sums the per-round visit counts, failing if any round hit
// the pattern budget: truncated rounds are not order-invariant, so the
// identity argument (and the visit comparison) only holds for complete
// walks.
func totalVisits(t *testing.T, res *pa.Result, cap int) int {
	t.Helper()
	v := 0
	for _, rs := range res.RoundStats {
		if cap > 0 && rs.Visits >= cap {
			t.Fatalf("round %d hit the pattern budget (%d visits); A/B needs complete walks", rs.Round, rs.Visits)
		}
		v += rs.Visits
	}
	return v
}

// TestBenefitDirectedRijndaelAB pins the paper's worst-case workload on
// its densest lattice: the first two rounds, walked to completion at the
// default pattern budget. The lexicographic reference walks without the
// unextractable-fragment prune, and its two rounds are 39,742 induced
// fragments, dominated by the unrolled crypto rounds' textually
// identical fragments. Its bounds barely cut there: most fragments have
// a MIS upper bound that meets the final incumbent (benefit 26 needs
// m>=5 at k=8), so the lattice looked bound-immune. Nearly all of those
// fragments are unextractable, though — every embedding row's
// dependence hull is larger than MaxNodes or holds an instruction that
// cannot be outlined — and the benefit-directed walk cuts them before
// visiting them: both rounds complete in a few hundred visits. The gates
// are Result identity and both arms' exact visit counts.
func TestBenefitDirectedRijndaelAB(t *testing.T) {
	if testing.Short() {
		t.Skip("same-process A/B over the full rijndael workload; skipped with -short")
	}
	opts := pa.Options{MaxRounds: 2}
	budget := opts.MaxPatternsOrDefault() // rounds must not truncate
	lexOpts := pa.Lexicographic(opts)

	runtime.GC()
	t0 := time.Now()
	lex := optimizeWorkload(t, "rijndael", lexOpts)
	lexDur := time.Since(t0)

	runtime.GC()
	t1 := time.Now()
	bf := optimizeWorkload(t, "rijndael", opts)
	bfDur := time.Since(t1)

	if got, want := resultFingerprint(bf), resultFingerprint(lex); got != want {
		t.Fatalf("benefit-directed Result differs from lexicographic reference\ngot:\n%s\nwant:\n%s", got, want)
	}
	lexV, bfV := totalVisits(t, lex, budget), totalVisits(t, bf, budget)
	t.Logf("rijndael A/B (2 rounds, complete): lex %v / %d visits, best-first %v / %d visits (%.1f%% of lex visits, %.1f%% of lex wall)",
		lexDur, lexV, bfDur, bfV, 100*float64(bfV)/float64(lexV), 100*float64(bfDur)/float64(lexDur))
	if bfV != 573 || lexV != 39742 {
		t.Errorf("best-first visited %d lattice nodes and lex %d; want 573 and 39742", bfV, lexV)
	}
}

// TestBenefitDirectedShaAB is the headline perf gate: sha's fixpoint
// walks to completion under the default budget, its per-round incumbents
// land on the mod-7 residues where CallBenefit's threshold beats
// fragUB's (benefit 13 prunes m<=3 instead of m<=2), and the incumbent
// seeded from the sequence scan kills the post-extraction rounds'
// rediscovery. Measured ~46%
// fewer lattice visits with a byte-identical Result.
func TestBenefitDirectedShaAB(t *testing.T) {
	if testing.Short() {
		t.Skip("full sha workload A/B; skipped with -short")
	}
	lex := optimizeWorkload(t, "sha", pa.Lexicographic(pa.Options{}))
	bf := optimizeWorkload(t, "sha", pa.Options{})
	if got, want := resultFingerprint(bf), resultFingerprint(lex); got != want {
		t.Fatalf("benefit-directed Result differs from lexicographic reference\ngot:\n%s\nwant:\n%s", got, want)
	}
	lexV, bfV := totalVisits(t, lex, 100_000), totalVisits(t, bf, 100_000)
	t.Logf("sha A/B: lex %d visits, best-first %d visits (%.1f%%)", lexV, bfV, 100*float64(bfV)/float64(lexV))
	if bfV*10 > lexV*7 {
		t.Errorf("best-first visited %d lattice nodes vs lex %d; want <= 70%%", bfV, lexV)
	}
}

// TestBenefitDirectedMatrix drives the full equivalence matrix — the
// lexicographic reference and the benefit-directed walk, each with and
// without cross-round reuse — on two mid-size workloads, pinning one
// fingerprint per workload.
func TestBenefitDirectedMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-configuration benchmark runs; skipped with -short")
	}
	arms := []struct {
		name string
		lex  bool
	}{{"lex", true}, {"benefit", false}}
	for _, name := range []string{"crc", "dijkstra"} {
		var want string
		visits := make([][]int, len(arms)) // per-round visit traces by arm
		for ai, arm := range arms {
			for _, rebuild := range []bool{false, true} {
				opts := pa.Options{}
				if arm.lex {
					opts = pa.Lexicographic(opts)
				}
				if rebuild {
					opts = pa.Rebuild(opts)
				}
				res := optimizeWorkload(t, name, opts)
				cfgName := fmt.Sprintf("%s/%s/rebuild=%v", name, arm.name, rebuild)
				if got := resultFingerprint(res); want == "" {
					want = got
				} else if got != want {
					t.Fatalf("%s: Result differs from reference", cfgName)
				}
				var vt []int
				for _, rs := range res.RoundStats {
					vt = append(vt, rs.Visits)
				}
				if visits[ai] == nil {
					visits[ai] = vt
				} else if fmt.Sprint(vt) != fmt.Sprint(visits[ai]) {
					t.Fatalf("%s: visit trace %v, want %v", cfgName, vt, visits[ai])
				}
			}
		}
	}
}
