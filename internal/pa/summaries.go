package pa

import (
	"graphpa/internal/arm"
	"graphpa/internal/cfg"
)

// CallSummaries computes interprocedural register-effect summaries for
// every procedure in the program: the union of its instructions' effects
// plus (transitively) its callees', iterated to a fixpoint over the call
// graph. Link-time rewriters need this because procedural abstraction
// creates procedures with no calling convention at all — they read and
// write whatever registers their fragment touched — so later rounds must
// model each call with its callee's true footprint instead of the ABI
// clobber set (the bug class this prevents: hoisting a definition of r10
// across a call whose outlined body consumes r10).
//
// Summaries over-approximate: Reads is the union of registers any
// instruction reads (a superset of live-in) and Writes the union of
// registers possibly written. Calls to targets outside the program (none
// exist in a statically linked image, but be safe) assume the most
// conservative footprint.
func CallSummaries(view *cfg.Program) map[string]arm.Effects {
	return decorateSummaries(rawSummaries(view))
}

// rawSummaries runs the effect fixpoint, every function from bottom, and
// returns the undecorated least-fixpoint values (decorateSummaries adds
// the unconditional call-site effects consumers see).
func rawSummaries(view *cfg.Program) map[string]arm.Effects {
	// Most conservative effects: everything.
	worst := arm.Effects{LoadsMem: true, StoresMem: true, Barrier: true}
	for r := arm.R0; r <= arm.CPSR; r++ {
		worst.Reads = worst.Reads.Add(r)
		worst.Writes = worst.Writes.Add(r)
	}

	sum := make(map[string]arm.Effects, len(view.Funcs))
	for _, fn := range view.Funcs {
		sum[fn.Name] = arm.Effects{Barrier: true}
	}

	// Save/restore discipline: registers a procedure pushes on entry and
	// pops on every return are PRESERVED for the caller. Where the
	// discipline is verified we (a) ignore the prologue's own reads and
	// the epilogues' own writes of those registers and (b) subtract them
	// from the final write set: compiled code saves half the register
	// file, and without this every call is a dependence wall. Reads
	// contributed by the body or by callees stay — a PA-created callee
	// that genuinely observes a saved register (its fragment read it)
	// keeps that read visible, which is the soundness-critical case.
	type disc struct {
		saved arm.RegSet
		ok    bool
	}
	discOf := map[string]disc{}
	for _, fn := range view.Funcs {
		s, ok := preservedRegs(fn)
		discOf[fn.Name] = disc{saved: s, ok: ok}
	}

	changed := true
	for changed {
		changed = false
		for _, fn := range view.Funcs {
			d := discOf[fn.Name]
			cur := sum[fn.Name]
			next := cur
			for bi, b := range fn.Blocks {
				for i := range b.Instrs {
					in := &b.Instrs[i]
					e := arm.EffectsOf(in)
					if d.ok {
						if in.Op == arm.PUSH && bi == 0 && i == 0 {
							e.Reads &^= d.saved | 1<<arm.LR
						}
						if in.Op == arm.POP {
							e.Writes &^= d.saved
						}
					}
					if in.Op == arm.BL {
						callee, ok := sum[in.Target]
						if !ok {
							callee = worst
						}
						e.Reads |= callee.Reads
						e.Writes |= callee.Writes
						e.LoadsMem = e.LoadsMem || callee.LoadsMem
						e.StoresMem = e.StoresMem || callee.StoresMem
					}
					next.Reads |= e.Reads
					next.Writes |= e.Writes
					next.LoadsMem = next.LoadsMem || e.LoadsMem
					next.StoresMem = next.StoresMem || e.StoresMem
				}
			}
			// pc is control flow, not data flow, at call granularity;
			// verified-preserved registers are restored on every return.
			next.Reads &^= 1 << arm.PC
			next.Writes &^= 1 << arm.PC
			if d.ok {
				next.Writes &^= d.saved
			}
			if next != cur {
				sum[fn.Name] = next
				changed = true
			}
		}
	}
	return sum
}

// summariesChanged counts the functions of cur whose summary is new or
// differs from prev.
func summariesChanged(prev, cur map[string]arm.Effects) int {
	n := 0
	for name, e := range cur {
		if old, ok := prev[name]; !ok || old != e {
			n++
		}
	}
	return n
}

// decorateSummaries adds the effects every call site has regardless of
// the body: the bl writes lr, and calls act as scheduling barriers. The
// driver counts RoundStat.SummariesChanged on the raw values, so a change
// the decoration would mask (a new lr write) still counts.
func decorateSummaries(raw map[string]arm.Effects) map[string]arm.Effects {
	out := make(map[string]arm.Effects, len(raw))
	for name, e := range raw {
		e.Writes = e.Writes.Add(arm.LR)
		e.Barrier = true
		out[name] = e
	}
	return out
}

// preservedRegs detects the two prologue/epilogue disciplines our code
// uses and returns the register set proven saved+restored on every path:
//
//	push {L, lr} … pop {L, pc}          (compiled procedures)
//	push {L} … pop {L}; bx lr           (runtime leaves with scratch)
func preservedRegs(fn *cfg.Func) (arm.RegSet, bool) {
	if len(fn.Blocks) == 0 || len(fn.Blocks[0].Instrs) == 0 {
		return 0, false
	}
	first := &fn.Blocks[0].Instrs[0]
	if first.Op != arm.PUSH {
		return 0, false
	}
	withLR := first.Reglist&(1<<arm.LR) != 0
	list := first.Reglist &^ (1 << arm.LR)
	if list == 0 {
		// Only lr saved: nothing to exclude, but the discipline may
		// still hold; report empty exclusion.
		list = 0
	}
	var saved arm.RegSet
	for r := arm.R0; r < arm.Reg(arm.NumRegs); r++ {
		if list&(1<<r) != 0 {
			saved = saved.Add(r)
		}
	}
	if saved == 0 {
		return 0, false
	}

	// Every return must restore exactly the saved list. Returns are pop
	// {…, pc} (discipline 1) or bx lr (discipline 2, with the restoring
	// pop somewhere before it in the same block).
	seenReturn := false
	for bi, b := range fn.Blocks {
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			switch {
			case in.Op == arm.POP && in.Reglist&(1<<arm.PC) != 0:
				if !withLR || in.Reglist != first.Reglist&^(1<<arm.LR)|1<<arm.PC {
					return 0, false
				}
				seenReturn = true
			case in.Op == arm.POP:
				if in.Reglist != list {
					return 0, false
				}
			case in.Op == arm.PUSH && !(bi == 0 && ii == 0):
				return 0, false
			case in.Op == arm.BX && in.Rm == arm.LR:
				if withLR {
					return 0, false
				}
				// requires a restoring pop earlier in this block
				restored := false
				for j := ii - 1; j >= 0; j-- {
					if b.Instrs[j].Op == arm.POP && b.Instrs[j].Reglist == list {
						restored = true
						break
					}
					if b.Instrs[j].Op == arm.POP || b.Instrs[j].Op == arm.PUSH {
						break
					}
				}
				if !restored {
					return 0, false
				}
				seenReturn = true
			}
		}
	}
	if !seenReturn {
		return 0, false
	}
	return saved, true
}
