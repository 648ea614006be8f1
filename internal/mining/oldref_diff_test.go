package mining

import (
	"fmt"
	"sort"
	"testing"
)

// TestIsMinimalMatchesBoxed compares IsMinimal with the boxed reference
// code by code: every child code, minimal or not, that the visits of
// walks over the handwritten sets and over random DAGs (dense in
// automorphisms) generate, edge steps and node steps, at support 1
// (every subgraph) and 2.
func TestIsMinimalMatchesBoxed(t *testing.T) {
	sets := testGraphSets()
	for trial, graphs := range randomDAGSets(42, 30) {
		sets[fmt.Sprintf("random%02d", trial)] = graphs
	}
	names := make([]string, 0, len(sets))
	for name := range sets {
		names = append(names, name)
	}
	sort.Strings(names)
	verdicts := map[bool]int{}
	for _, name := range names {
		for _, minSup := range []int{1, 2} {
			for _, emb := range []bool{false, true} {
				cfg := Config{MinSupport: minSup, MaxNodes: 5, EmbeddingSupport: emb, MaxPatterns: 1000}
				probe := &miner{cfg: cfg, gx: newGraphIndex(sets[name])}
				Mine(sets[name], cfg, func(p *Pattern) {
					for _, g := range probe.extendGroups(p.Code, p.Embeddings) {
						child := append(p.Code[:len(p.Code):len(p.Code)], g.step()...)
						got, want := child.IsMinimal(), oldIsMinimal(child)
						if got != want {
							t.Fatalf("%s/minsup=%d/emb=%v: IsMinimal(%s) = %v, reference %v", name, minSup, emb, child, got, want)
						}
						verdicts[got]++
					}
				})
			}
		}
	}
	t.Logf("verdicts: %v", verdicts)
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("verdicts %v: both outcomes must be exercised", verdicts)
	}
}

// TestIsMinimalExitsMatchBoxed drives IsMinimal down the exits that child
// codes of real lattices never reach, with hand-built ill-formed codes,
// and compares each verdict with the boxed reference. A code's pattern
// graph holds the code's own edges, so at step 0 there is always some
// first tuple: the "no extension" exit exists only at later steps. Node
// labels are the last ones the code assigns, which is how a code can
// claim a label its pattern graph does not carry.
func TestIsMinimalExitsMatchBoxed(t *testing.T) {
	tu := func(i, j int, li string, out bool, le, lj string) Tuple {
		return Tuple{I: i, J: j, LI: li, LJ: lj, Out: out, LE: le}
	}
	cases := []struct {
		name string
		code Code
		want bool
	}{
		{
			// (0,1,a,<,x,b) from node 1 is below c[0].
			"smaller/step0",
			Code{tu(0, 1, "b", true, "x", "a")},
			false,
		},
		{
			// Step 1 collects (0,2,a,>,y,c), equal to c[1], then meets
			// the forward extension from node 1, which is smaller.
			"smaller/step1",
			Code{tu(0, 1, "a", true, "x", "b"), tu(0, 2, "a", true, "y", "c"), tu(1, 3, "b", true, "x", "d")},
			false,
		},
		{
			// c[1] relabels node 0 to z, so every first tuple of the
			// pattern graph is larger than c[0].
			"larger/step0",
			Code{tu(0, 1, "a", true, "x", "b"), tu(0, 2, "z", true, "x", "c")},
			true,
		},
		{
			// c[3] relabels node 3 to z: at step 2 the extension along
			// c[2]'s edge reads (2,3,c,>,x,z) and the other one,
			// (1,3,b,<,y,z), starts further left; both exceed c[2].
			"larger/step2",
			Code{tu(0, 1, "a", true, "x", "b"), tu(1, 2, "b", true, "x", "c"), tu(2, 3, "c", true, "x", "d"), tu(3, 1, "z", true, "y", "b")},
			true,
		},
		{
			// c[1]'s edge is disconnected from c[0]'s: the prefix has
			// no extension at all.
			"none/step1",
			Code{tu(0, 1, "a", true, "x", "b"), tu(2, 3, "c", true, "x", "d")},
			false,
		},
	}
	for _, tc := range cases {
		got, ref := tc.code.IsMinimal(), oldIsMinimal(tc.code)
		if got != ref {
			t.Errorf("%s: IsMinimal(%s) = %v, reference %v", tc.name, tc.code, got, ref)
		}
		if got != tc.want {
			t.Errorf("%s: IsMinimal(%s) = %v, want %v", tc.name, tc.code, got, tc.want)
		}
	}
}
