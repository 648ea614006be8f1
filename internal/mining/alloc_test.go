package mining

import (
	"runtime"
	"testing"
)

// allocFixture returns a pinned extension group and its parent embedding
// set from the replicated running example — the fixed fragment the alloc
// regression tests below measure against. The group aliases the miner's
// scratch, so callers must not run extendGroups on the miner again.
func allocFixture(t testing.TB) (*miner, rawGroup, *EmbSet) {
	graphs := testGraphSets()["replicated"]
	mn := &miner{
		cfg: Config{MinSupport: 2, EmbeddingSupport: true},
		gx:  newGraphIndex(graphs),
	}
	roots := seedPatterns(graphs)
	if len(roots) == 0 {
		t.Fatal("no seed patterns in fixture")
	}
	set := roots[0].set
	groups := mn.extendGroups(Code{roots[0].t}, set)
	if len(groups) == 0 {
		t.Fatal("no extension groups in fixture")
	}
	return mn, groups[0], set
}

// TestAllocsOverlaps pins the tentpole invariant: an overlap probe is a
// word-wise AND over slab-resident bitsets and never allocates.
func TestAllocsOverlaps(t *testing.T) {
	_, _, set := allocFixture(t)
	n := set.Len()
	if n < 2 {
		t.Fatalf("fixture set has %d embeddings; want >= 2", n)
	}
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < n; i++ {
			set.Overlaps(0, i)
		}
	})
	if avg != 0 {
		t.Fatalf("Overlaps allocated %.2f objects per run; want 0", avg)
	}
}

// TestAllocsMaterialize pins materialisation to the child set's own
// storage: the *EmbSet header plus its gids and tup slabs. Dedupe state
// lives in pooled scratch and must not show up here.
func TestAllocsMaterialize(t *testing.T) {
	mn, g, set := allocFixture(t)
	avg := testing.AllocsPerRun(200, func() {
		if _, ok := mn.materialize(g, set); !ok {
			t.Fatal("materialize dropped the fixture group")
		}
	})
	t.Logf("materialize: %.2f allocs/run", avg)
	if avg > 3 {
		t.Fatalf("materialize allocated %.2f objects per run; want <= 3 (child set header + 2 slabs)", avg)
	}
}

// TestAllocsDisjointIndices pins the MIS front end (the flat core behind
// DisjointEmbeddings) to result-slice growth only — grouping, dedupe and
// the clique solver all run out of reused scratch.
func TestAllocsDisjointIndices(t *testing.T) {
	_, _, set := allocFixture(t)
	cfg := Config{EmbeddingSupport: true}
	if len(DisjointIndices(set, cfg)) == 0 {
		t.Fatal("fixture has no disjoint embeddings")
	}
	var sc misScratch
	avg := testing.AllocsPerRun(200, func() { disjointIndices(set, cfg, &sc) })
	t.Logf("disjointIndices: %.2f allocs/run", avg)
	if avg > 4 {
		t.Fatalf("disjointIndices allocated %.2f objects per run; want <= 4 (result-slice growth only)", avg)
	}
}

// TestAllocsIsMinimal pins the minimality test to zero allocations on a
// warm pool: the pattern graph, its label ids, the group buffers and the
// two alternating embedding slabs are all reused. The code is the
// largest pattern of the replicated running example, so every growth
// step runs.
func TestAllocsIsMinimal(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	var code Code
	Mine(testGraphSets()["replicated"], Config{MinSupport: 2, EmbeddingSupport: true}, func(p *Pattern) {
		if len(p.Code) > len(code) {
			code = p.Code
		}
	})
	if len(code) < 3 || !code.IsMinimal() {
		t.Fatalf("fixture code %s: want a minimal code of >= 3 edges", code)
	}
	avg := testing.AllocsPerRun(200, func() { code.IsMinimal() })
	if avg != 0 {
		t.Fatalf("IsMinimal allocated %.2f objects per run; want 0", avg)
	}
}

// TestAllocsChildMinimalAcrossGC pins the walk's minimality test to zero
// allocations even when garbage collections run between calls: a walking
// miner keeps its minimal-code scratch itself, where a sync.Pool would be
// emptied by each collection and refilled on the next call.
func TestAllocsChildMinimalAcrossGC(t *testing.T) {
	var code Code
	Mine(testGraphSets()["replicated"], Config{MinSupport: 2, EmbeddingSupport: true}, func(p *Pattern) {
		if len(p.Code) > len(code) {
			code = p.Code
		}
	})
	prefix, last := code[:len(code)-1], code[len(code)-1]
	mn := &miner{}
	if len(code) < 3 || !mn.childMinimal(prefix, last) {
		t.Fatalf("fixture code %s: want a minimal code of >= 3 edges", code)
	}
	avg := testing.AllocsPerRun(20, func() {
		runtime.GC()
		runtime.GC()
		mn.childMinimal(prefix, last)
	})
	if avg != 0 {
		t.Fatalf("childMinimal allocated %.2f objects per run across collections; want 0", avg)
	}
}
