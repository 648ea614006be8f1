package bench

// Differential proof of the incremental driver: the dirty-set loop (the
// default) must be byte-identical to the rebuild-everything loop
// (Options.NoIncremental) — same report, same extraction sequence, same
// re-linked binary — on every benchmark, at both Workers=1 and
// Workers=8. The incremental side is shared with parallel_test.go's
// fixture (whose runs are incremental); this file adds the from-scratch
// reference runs and the cache-effectiveness assertions.
//
// One scratch run per benchmark is enough: both incremental widths are
// compared against the same reference, and cross-width bit-identity of
// the pipeline itself is TestParallelOptimizeDeterministic's job. The
// reference runs at Workers=8 so the whole-suite wall clock stays inside
// the default per-package test budget.

import (
	"sync"
	"testing"

	"graphpa/internal/core"
	"graphpa/internal/link"
	"graphpa/internal/pa"
)

type scratchEntry struct {
	res *pa.Result
	img *link.Image
}

var scratch = struct {
	once    sync.Once
	err     error
	entries map[string]*scratchEntry
}{}

// scratchEntries optimizes the same workloads as detEntries with
// NoIncremental set, once per test binary.
func scratchEntries(t *testing.T) (names []string, entries map[string]*scratchEntry) {
	t.Helper()
	names, incEntries := detEntries(t)
	scratch.once.Do(func() {
		scratch.entries = map[string]*scratchEntry{}
		m, err := core.MinerByName("edgar")
		if err != nil {
			scratch.err = err
			return
		}
		for _, n := range names {
			w := incEntries[n].w
			e := &scratchEntry{}
			e.res, e.img, err = core.Optimize(w.Image, m,
				pa.Options{MaxPatterns: detMaxPatterns, Workers: 8, NoIncremental: true})
			if err != nil {
				scratch.err = err
				return
			}
			scratch.entries[n] = e
		}
	})
	if scratch.err != nil {
		t.Fatal(scratch.err)
	}
	return names, scratch.entries
}

// TestIncrementalMatchesScratch: for every benchmark and both widths,
// the incremental run must agree with the from-scratch reference on the
// full report (rounds, instruction counts, the exact extraction
// sequence) and produce a word-identical re-linked image.
func TestIncrementalMatchesScratch(t *testing.T) {
	names, inc := detEntries(t)
	_, ref := scratchEntries(t)
	for _, n := range names {
		b := ref[n].res
		for _, width := range []struct {
			label    string
			incR     *pa.Result
			sameImgs bool
		}{
			{"Workers=1", inc[n].serial, sameImage(inc[n].serialImg, ref[n].img)},
			{"Workers=8", inc[n].parallel, sameImage(inc[n].parImg, ref[n].img)},
		} {
			a := width.incR
			if a.Before != b.Before || a.After != b.After || a.Rounds != b.Rounds {
				t.Errorf("%s %s: totals diverge: incremental %d->%d in %d rounds, scratch %d->%d in %d rounds",
					n, width.label, a.Before, a.After, a.Rounds, b.Before, b.After, b.Rounds)
				continue
			}
			if len(a.Extractions) != len(b.Extractions) {
				t.Errorf("%s %s: %d incremental extractions vs %d from scratch",
					n, width.label, len(a.Extractions), len(b.Extractions))
				continue
			}
			for i := range a.Extractions {
				if a.Extractions[i] != b.Extractions[i] {
					t.Errorf("%s %s: extraction %d diverges:\nincremental: %+v\nscratch:     %+v",
						n, width.label, i, a.Extractions[i], b.Extractions[i])
				}
			}
			if !width.sameImgs {
				t.Errorf("%s %s: incremental and from-scratch images differ", n, width.label)
			}
		}
	}
}

// TestIncrementalCacheEffectiveness: on a multi-round benchmark, rounds
// after the first must reuse every dependence graph of untouched
// functions — RebuiltClean, the over-invalidation counter, stays zero —
// and actually hit the caches (graphs reused, lattice subtrees
// fast-forwarded). This is the quantitative half of the differential
// test: identical output AND strictly less work.
func TestIncrementalCacheEffectiveness(t *testing.T) {
	_, inc := detEntries(t)
	res := inc["crc"].serial
	if res.Rounds < 2 {
		t.Fatalf("crc expected to take multiple rounds, got %d", res.Rounds)
	}
	if len(res.RoundStats) != res.Rounds+1 {
		// Fixpoint runs record every applying round plus the final probe.
		t.Fatalf("expected %d round stats (rounds + probe), got %d", res.Rounds+1, len(res.RoundStats))
	}
	reused, hits := 0, 0
	for _, rs := range res.RoundStats[1:] {
		if rs.RebuiltClean != 0 {
			t.Errorf("round %d: %d clean-block rebuilds (dirty-set over-invalidation)", rs.Round, rs.RebuiltClean)
		}
		if rs.BlocksReused+rs.BlocksRebound == 0 {
			t.Errorf("round %d: no dependence graphs reused", rs.Round)
		}
		reused += rs.BlocksReused
		hits += rs.MemoHits
	}
	if reused == 0 {
		t.Error("no object-identical graph reuse across any round")
	}
	if hits == 0 {
		t.Error("no lattice subtrees fast-forwarded across any round")
	}
	for _, rs := range res.RoundStats {
		if rs.Blocks != rs.BlocksReused+rs.BlocksRebound+rs.BlocksRebuilt {
			t.Errorf("round %d: block accounting inconsistent: %d != %d+%d+%d",
				rs.Round, rs.Blocks, rs.BlocksReused, rs.BlocksRebound, rs.BlocksRebuilt)
		}
	}
}
