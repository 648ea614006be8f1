package bench

// End-to-end proof that the per-round fan-outs (dependence-graph build,
// sequence scan) leave the optimizer byte-identical to the serial one.
// Each benchmark is optimized twice — Workers=1 (the fully serial
// pipeline) and Workers=8 (well past any core count that changes
// scheduling here) — and both the optimization report and the re-linked
// binary images must match exactly. The differential test then emulates
// every parallel-optimized binary against its unoptimized original.
// Short mode keeps the two fastest programs; the full run covers the
// whole suite.

import (
	"sync"
	"testing"

	"graphpa/internal/core"
	"graphpa/internal/link"
	"graphpa/internal/pa"
)

// detMaxPatterns matches the root-level benchmark budget: large enough
// that rijndael's search is non-trivially truncated, small enough to keep
// the full suite in CI time.
const detMaxPatterns = 30000

type detEntry struct {
	w         *Workload
	serial    *pa.Result
	parallel  *pa.Result
	serialImg *link.Image
	parImg    *link.Image
}

var det = struct {
	once    sync.Once
	err     error
	names   []string
	entries map[string]*detEntry
}{}

// detEntries builds and optimizes the benchmark set once per test
// binary, at both widths, and shares the images across the determinism
// and differential tests.
func detEntries(t *testing.T) (names []string, entries map[string]*detEntry) {
	t.Helper()
	det.once.Do(func() {
		det.names = Names
		if testing.Short() {
			det.names = []string{"crc", "search"}
		}
		det.entries = map[string]*detEntry{}
		m, err := core.MinerByName("edgar")
		if err != nil {
			det.err = err
			return
		}
		for _, n := range det.names {
			w, err := Build(n, DefaultCodegen())
			if err != nil {
				det.err = err
				return
			}
			e := &detEntry{w: w}
			e.serial, e.serialImg, err = core.Optimize(w.Image, m,
				pa.Options{MaxPatterns: detMaxPatterns, Workers: 1})
			if err != nil {
				det.err = err
				return
			}
			e.parallel, e.parImg, err = core.Optimize(w.Image, m,
				pa.Options{MaxPatterns: detMaxPatterns, Workers: 8})
			if err != nil {
				det.err = err
				return
			}
			det.entries[n] = e
		}
	})
	if det.err != nil {
		t.Fatal(det.err)
	}
	return det.names, det.entries
}

func sameImage(a, b *link.Image) bool {
	if a.TextWords != b.TextWords || a.Entry != b.Entry || len(a.Words) != len(b.Words) {
		return false
	}
	for i := range a.Words {
		if a.Words[i] != b.Words[i] {
			return false
		}
	}
	return true
}

// TestParallelOptimizeDeterministic: Workers=8 must reproduce the
// Workers=1 optimization exactly — same rounds, same extraction sequence
// (names, methods, sizes, occurrence counts, benefits) and the same
// final binary, on every benchmark program.
func TestParallelOptimizeDeterministic(t *testing.T) {
	names, entries := detEntries(t)
	for _, n := range names {
		e := entries[n]
		s, p := e.serial, e.parallel
		if s.Before != p.Before || s.After != p.After || s.Rounds != p.Rounds {
			t.Errorf("%s: totals diverge: serial %d->%d in %d rounds, parallel %d->%d in %d rounds",
				n, s.Before, s.After, s.Rounds, p.Before, p.After, p.Rounds)
			continue
		}
		if len(s.Extractions) != len(p.Extractions) {
			t.Errorf("%s: %d serial extractions vs %d parallel", n, len(s.Extractions), len(p.Extractions))
			continue
		}
		for i := range s.Extractions {
			if s.Extractions[i] != p.Extractions[i] {
				t.Errorf("%s: extraction %d diverges:\nserial:   %+v\nparallel: %+v",
					n, i, s.Extractions[i], p.Extractions[i])
			}
		}
		if !sameImage(e.serialImg, e.parImg) {
			t.Errorf("%s: optimized images differ between Workers=1 and Workers=8", n)
		}
	}
}

// TestParallelOptimizedBinariesBehave: every binary produced by the
// parallel pipeline must behave exactly like its unoptimized original
// (exit code and output) under the emulator — the same differential
// check the harness applies, aimed specifically at the parallel path.
func TestParallelOptimizedBinariesBehave(t *testing.T) {
	names, entries := detEntries(t)
	for _, n := range names {
		e := entries[n]
		if err := core.VerifyEquivalent(e.w.Image, e.parImg, nil); err != nil {
			t.Errorf("%s: parallel-optimized binary diverges: %v", n, err)
		}
	}
}
