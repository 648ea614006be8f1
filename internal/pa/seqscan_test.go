package pa_test

import (
	"slices"
	"testing"

	"graphpa/internal/bench"
	"graphpa/internal/pa"
)

// TestScanSequencesMatchesFullScan is the sequence scan's differential
// test: on every benchmark's round-1 graphs, for both support modes and
// several length caps, ScanSequences returns exactly the candidates of
// the per-length full scan (export_test.go), stably sorted by benefit
// and cut to 64, in the same order. On rijndael at the default cap it
// also pins how few groups the scan builds: at most a tenth of them in
// the embedding mode. (The graph-count mode has 229 groups there, and
// the scan builds at least 64 whenever 64 candidates exist.)
func TestScanSequencesMatchesFullScan(t *testing.T) {
	for _, name := range bench.Names {
		w, err := bench.Build(name, bench.DefaultCodegen())
		if err != nil {
			t.Fatal(err)
		}
		graphs := w.Graphs()
		for _, graphSupport := range []bool{false, true} {
			for _, maxSeqLen := range []int{0, 3, 8, 64} {
				got, want, builds, groups := pa.ScanAndOracle(graphs, pa.Options{MaxSeqLen: maxSeqLen}, graphSupport)
				if len(want) == 0 {
					t.Fatalf("%s/graphSupport=%v/maxSeqLen=%d: the scan found no candidates", name, graphSupport, maxSeqLen)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s/graphSupport=%v/maxSeqLen=%d: candidates differ from the full scan's:\ngot  %q\nwant %q",
						name, graphSupport, maxSeqLen, got, want)
				}
				if name == "rijndael" && maxSeqLen == 0 && !graphSupport {
					t.Logf("rijndael: %d of %d groups built", builds, groups)
					if builds*10 > groups {
						t.Errorf("rijndael: built %d of %d groups, want at most a tenth", builds, groups)
					}
				}
			}
		}
	}
}

// TestScanGroupsSplitCollisions forces 64-bit collisions with hand-set
// window hashes. A run of equal hashes whose first window has other
// tokens must still yield the genuine repeat behind it, and a run
// holding two repeats yields both, in order of first member, also when
// that is not their token order.
func TestScanGroupsSplitCollisions(t *testing.T) {
	seqs := [][]uint64{{1, 2}, {3, 4}, {3, 4}, {1, 2}, {5, 6}, {1, 2}}
	for _, tc := range []struct {
		name string
		wins []pa.Window2
		want []string
	}{
		{"first window collides", []pa.Window2{{G: 0, H: 7}, {G: 1, H: 7}, {G: 2, H: 7}}, []string{"2:1.0,2.0"}},
		{"two repeats in one run", []pa.Window2{{G: 1, H: 7}, {G: 0, H: 7}, {G: 2, H: 7}, {G: 3, H: 7}, {G: 4, H: 7}},
			[]string{"2:0.0,3.0", "2:1.0,2.0"}},
		{"first member against token order", []pa.Window2{{G: 3, H: 7}, {G: 1, H: 7}, {G: 5, H: 7}, {G: 2, H: 7}},
			[]string{"2:1.0,2.0", "2:3.0,5.0"}},
		{"no repeat", []pa.Window2{{G: 0, H: 7}, {G: 1, H: 7}, {G: 4, H: 7}}, nil},
	} {
		got, oracle := pa.GroupHashed2(seqs, tc.wins)
		if !slices.Equal(got, tc.want) || !slices.Equal(oracle, tc.want) {
			t.Errorf("%s: scan groups %q, oracle %q, want %q", tc.name, got, oracle, tc.want)
		}
	}
}

// FuzzScanGroups checks the window layer on random token sequences
// over a four-letter alphabet: extending only the windows that still
// repeat yields exactly the full scan's token-equal groups of at least
// two windows, at every length, in the same order. A byte of 0xff
// starts a new sequence; the first byte sets the length cap.
func FuzzScanGroups(f *testing.F) {
	f.Add([]byte{8, 1, 2, 1, 2, 1, 2, 0xff, 1, 2, 1})
	f.Add([]byte{40, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0, 0, 0, 0})
	f.Add([]byte{3, 1, 2, 3, 0xff, 1, 2, 3, 0xff, 2, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4096 {
			return
		}
		maxLen := int(data[0])
		seqs := [][]uint64{nil}
		for _, b := range data[1:] {
			if b == 0xff {
				seqs = append(seqs, nil)
				continue
			}
			seqs[len(seqs)-1] = append(seqs[len(seqs)-1], uint64(b%4)+1)
		}
		got, want := pa.ScanGroups(seqs, maxLen)
		if !slices.Equal(got, want) {
			t.Fatalf("seqs %v, maxLen %d: groups\n%q\nwant\n%q", seqs, maxLen, got, want)
		}
	})
}
