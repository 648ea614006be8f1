package pa_test

import (
	"slices"
	"testing"

	"graphpa/internal/bench"
	"graphpa/internal/pa"
)

// TestScanSortMatchesStableReference pins the sequence scan's window
// sort to the stable sort by hash it replaces: on every benchmark's
// round-1 graphs, for both support modes, every window length yields the
// same candidates in the same order.
func TestScanSortMatchesStableReference(t *testing.T) {
	for _, name := range bench.Names {
		w, err := bench.Build(name, bench.DefaultCodegen())
		if err != nil {
			t.Fatal(err)
		}
		graphs := w.Graphs()
		for _, graphSupport := range []bool{false, true} {
			got, want := pa.ScanBothSorts(graphs, graphSupport)
			if len(want) == 0 {
				t.Fatalf("%s/graphSupport=%v: the scan found no candidates", name, graphSupport)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s/graphSupport=%v: candidates differ from the stable-sort reference:\ngot  %q\nwant %q", name, graphSupport, got, want)
			}
		}
	}
}
