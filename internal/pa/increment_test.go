package pa

import (
	"testing"

	"graphpa/internal/arm"
	"graphpa/internal/cfg"
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
