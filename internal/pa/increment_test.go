package pa

import (
	"maps"
	"slices"
	"testing"

	"graphpa/internal/arm"
	"graphpa/internal/cfg"
	"graphpa/internal/dfg"
	"graphpa/internal/mining"
)

// Call summaries solved on the incremental driver's long-lived view must
// agree with a from-scratch solve after any edit, including one that
// changes a callee's footprint deep in the call graph (the change must
// propagate to every transitive caller), and the round's change count
// must cover exactly the functions whose summary moved.
func TestIncrementalSummariesMatchFull(t *testing.T) {
	prog := loadSrc(t, `
_start:
	bl top
	bl other
	swi 0
top:
	push {r4, lr}
	bl mid
	pop {r4, pc}
mid:
	push {r4, lr}
	bl leaf
	pop {r4, pc}
leaf:
	add r6, r5, #10
	bx lr
other:
	mov r3, #7
	bx lr
`)
	view := cfg.Build(prog)
	before := rawSummaries(view)
	if n := summariesChanged(nil, before); n != len(view.Funcs) {
		t.Errorf("first solve counts %d changed summaries, want all %d", n, len(view.Funcs))
	}

	// Edit leaf: it now also writes r7. Every transitive caller's summary
	// changes; other's must not.
	var leaf *cfg.Func
	for _, fn := range view.Funcs {
		if fn.Name == "leaf" {
			leaf = fn
		}
	}
	b := leaf.Blocks[0]
	fresh := append([]arm.Instr(nil), b.Instrs...)
	mov := arm.NewInstr(arm.MOV)
	mov.Rd = arm.R7
	mov.Imm = 1
	mov.HasImm = true
	fresh = append([]arm.Instr{mov}, fresh...)
	b.Instrs = fresh
	view.Resplit(map[*cfg.Func]bool{leaf: true})

	after := rawSummaries(view)
	compareSummaries(t, "after edit", decorateSummaries(after),
		CallSummaries(cfg.Build(cfg.Reassemble(view))))

	if !after["top"].Writes.Has(arm.R7) {
		t.Error("leaf's new write must propagate to its transitive caller top")
	}
	for _, name := range []string{"leaf", "mid", "top", "_start"} {
		if before[name] == after[name] {
			t.Errorf("summary of %s did not change after the edit", name)
		}
	}
	if before["other"] != after["other"] {
		t.Error("summary of other changed, but nothing it calls was edited")
	}
	if n := summariesChanged(before, after); n != 4 {
		t.Errorf("edit changed %d summaries, want 4 (leaf and its transitive callers)", n)
	}
}

func compareSummaries(t *testing.T, when string, got, want map[string]arm.Effects) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d summaries, want %d", when, len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("%s: missing summary for %s", when, name)
		}
		if g != w {
			t.Errorf("%s: summary of %s = %+v, want %+v", when, name, g, w)
		}
	}
}

// TestBlockEntryMiningGraph drives one block's cross-round entry by hand.
// Its cached mining graph is served, with the block ID restamped, while
// nothing changed, and never after a call-safety drift, a rebuild of the
// block's dependence graph (fresh instruction slice or a changed summary
// it consumed), or the block leaving the view. A served graph shares the
// cached graph's edge array; a built one has its own.
func TestBlockEntryMiningGraph(t *testing.T) {
	view := cfg.Build(loadSrc(t, `
_start:
	bl work
	swi 0
work:
	push {r4, lr}
	add r1, r0, #2
	add r2, r1, r0
	bl leaf
	add r3, r2, r1
	pop {r4, pc}
leaf:
	add r6, r5, #10
	bx lr
`))
	sums := decorateSummaries(rawSummaries(view))
	st := newIncState()
	round := func(sums map[string]arm.Effects) (*dfg.Graph, RoundStat) {
		t.Helper()
		var stat RoundStat
		graphs := st.buildGraphs(view, sums, nil, &stat)
		for _, g := range graphs {
			if g.Block.Fn.Name == "work" {
				return g, stat
			}
		}
		t.Fatal("no block of work in the view")
		return nil, stat
	}
	served := func(a, b *mining.Graph) bool { return &a.Edges[0] == &b.Edges[0] }

	g, _ := round(sums)
	b, fn := g.Block, g.Block.Fn
	if !slices.ContainsFunc(b.Instrs, func(in arm.Instr) bool { return in.Op == arm.BL }) || !CallSafe(fn) {
		t.Fatal("fixture block must call leaf and sit in a call-safe function")
	}
	mg := st.miningGraph(g, true, false)
	if len(mg.Edges) == 0 {
		t.Fatal("fixture block has no mining edges")
	}

	// Unchanged: served, and the ID follows the block's renumbering.
	g2, stat := round(sums)
	b.ID += 100
	mg2 := st.miningGraph(g2, true, false)
	if g2 != g || stat.BlocksReused != len(view.Blocks) || !served(mg, mg2) || mg2.ID != b.ID {
		t.Fatalf("unchanged block: graph kept %v, %d of %d reused, mining graph served %v with ID %d (block %d)",
			g2 == g, stat.BlocksReused, len(view.Blocks), served(mg, mg2), mg2.ID, b.ID)
	}

	// Call-safety drift with the block untouched: the edges of a
	// function that cannot take calls are all pruned.
	fn.LRSaved = false
	if mg3 := st.miningGraph(g, CallSafe(fn), false); len(mg3.Edges) != 0 {
		t.Fatalf("after the drift the mining graph kept %d edges", len(mg3.Edges))
	}
	fn.LRSaved = true
	mg = st.miningGraph(g, true, false)
	if served(mg2, mg) {
		t.Fatal("drift back: served the graph cached under the other flag")
	}

	// A fresh instruction slice rebuilds the dependence graph.
	b.Instrs = slices.Clone(b.Instrs)
	g3, stat := round(sums)
	if g3 == g || stat.BlocksRebuilt != 1 || served(mg, st.miningGraph(g3, true, false)) {
		t.Fatalf("fresh slice: graph kept %v, %d rebuilt", g3 == g, stat.BlocksRebuilt)
	}
	mg = st.miningGraph(g3, true, false)
	if served(mg, st.miningGraph(g, true, false)) {
		t.Fatal("served the block's mining graph for its superseded dependence graph")
	}

	// So does a change to a summary the block consumed.
	drift := maps.Clone(sums)
	eff := drift["leaf"]
	eff.Writes = eff.Writes.Add(arm.R7)
	drift["leaf"] = eff
	g4, stat := round(drift)
	if g4 == g3 || stat.BlocksRebuilt != 1 || served(mg, st.miningGraph(g4, true, false)) {
		t.Fatalf("summary change: graph kept %v, %d rebuilt", g4 == g3, stat.BlocksRebuilt)
	}
	mg = st.miningGraph(g4, true, false)

	// A block that leaves the view loses its entry, and comes back with
	// a fresh graph.
	all := view.Blocks
	view.Blocks = slices.DeleteFunc(slices.Clone(all), func(x *cfg.Block) bool { return x == b })
	st.buildGraphs(view, drift, nil, &RoundStat{})
	if _, ok := st.blocks[b]; ok {
		t.Fatal("a block that left the view kept its entry")
	}
	if served(mg, st.miningGraph(g4, true, false)) {
		t.Fatal("served the mining graph of a block that left the view")
	}
	view.Blocks = all
	if g5, _ := round(drift); g5 == g4 || served(mg, st.miningGraph(g5, true, false)) {
		t.Fatalf("returning block: graph kept %v", g5 == g4)
	}
}
