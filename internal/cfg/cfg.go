// Package cfg splits reconstructed functions into basic blocks (paper
// §2.1 phase 5). Blocks are the unit over which data-flow graphs are
// built and mined; the extraction engine rewrites block instruction lists
// and the program is reassembled from them.
package cfg

import (
	"graphpa/internal/arm"
	"graphpa/internal/loader"
)

// Block is one basic block.
type Block struct {
	// ID is unique across the whole program; the miner uses it as the
	// graph identifier.
	ID     int
	Fn     *Func
	Labels []string    // labels attached to the block start, in order
	Instrs []arm.Instr // executable instructions only
}

// Func groups the blocks of one procedure.
type Func struct {
	Name    string
	LRSaved bool
	Blocks  []*Block
}

// Program is the block-structured view of a loaded program.
type Program struct {
	Funcs  []*Func
	Blocks []*Block // all blocks in layout order (shared with Funcs)
	Data   *loader.Program
}

// endsBlock reports whether in terminates a basic block: any control
// transfer except calls (calls return to the next instruction and the
// surrounding dependence graph treats them as barrier nodes, which lets
// fragments span them safely).
func endsBlock(in *arm.Instr) bool {
	switch in.Op {
	case arm.B, arm.BX:
		return true
	case arm.POP:
		return in.Reglist&(1<<arm.PC) != 0
	case arm.SWI:
		return in.Cond == arm.Always && in.Imm == arm.SysExit
	}
	return false
}

// splitBlocks partitions one function's flat code (labels as LABEL
// pseudo-instructions) into basic blocks. IDs are assigned by the caller
// (Renumber); the partition depends only on the code.
func splitBlocks(fn *Func, code []arm.Instr) []*Block {
	var out []*Block
	cur := &Block{Fn: fn}
	flush := func() {
		if len(cur.Labels) == 0 && len(cur.Instrs) == 0 {
			return
		}
		out = append(out, cur)
		cur = &Block{Fn: fn}
	}
	for i := range code {
		in := code[i]
		if in.Op == arm.LABEL {
			if len(cur.Instrs) > 0 {
				flush()
			}
			cur.Labels = append(cur.Labels, in.Target)
			continue
		}
		cur.Instrs = append(cur.Instrs, in)
		if endsBlock(&in) {
			flush()
		}
	}
	flush()
	return out
}

// flatten renders one function's blocks back to flat code, the inverse of
// splitBlocks' partitioning: splitBlocks(flatten(fn)) reproduces a split
// function's block structure exactly.
func flatten(fn *Func) []arm.Instr {
	var code []arm.Instr
	for _, b := range fn.Blocks {
		for _, l := range b.Labels {
			lbl := arm.NewInstr(arm.LABEL)
			lbl.Target = l
			code = append(code, lbl)
		}
		code = append(code, b.Instrs...)
	}
	return code
}

// Build splits a loaded program into basic blocks.
func Build(prog *loader.Program) *Program {
	out := &Program{Data: prog}
	for _, lf := range prog.Funcs {
		fn := &Func{Name: lf.Name, LRSaved: lf.LRSaved}
		fn.Blocks = splitBlocks(fn, lf.Code)
		out.Funcs = append(out.Funcs, fn)
	}
	out.Renumber()
	return out
}

// Renumber rebuilds p.Blocks as the concatenation of every function's
// blocks in layout order and reassigns sequential IDs. Build's output
// always satisfies this layout; rewriters that insert or remove blocks
// call it (directly or via Resplit) to restore the invariant.
func (p *Program) Renumber() {
	p.Blocks = p.Blocks[:0]
	for _, fn := range p.Funcs {
		for _, b := range fn.Blocks {
			b.ID = len(p.Blocks)
			p.Blocks = append(p.Blocks, b)
		}
	}
}

// Resplit re-derives the block structure of the dirty functions from
// their (possibly rewritten) instruction lists and renumbers the whole
// program. The result is structurally identical to
// Build(Reassemble(p)) — same functions, same block partition, same IDs —
// but every untouched *Func and *Block keeps its identity, so per-block
// caches keyed by pointer stay valid across extraction rounds. Only IDs
// may change on clean blocks (earlier functions growing or shrinking
// shift the numbering).
func (p *Program) Resplit(dirty map[*Func]bool) {
	for _, fn := range p.Funcs {
		if !dirty[fn] {
			continue
		}
		fn.Blocks = reuseBlocks(fn.Blocks, splitBlocks(fn, flatten(fn)))
	}
	p.Renumber()
}

// reuseBlocks substitutes the function's previous *Block objects into a
// fresh re-split wherever labels and instruction content are identical.
// A rewrite only changes the blocks it touches, so most of a dirty
// function's re-split is byte-identical to its previous partition; keeping
// those blocks' identity keeps every downstream pointer-keyed cache (and
// anything anchored to those caches' values) valid across the round.
// Identical twins are matched in layout order; since both are
// byte-identical this only affects which pointer survives, never content.
func reuseBlocks(old, nb []*Block) []*Block {
	byKey := map[uint64][]*Block{}
	for _, b := range old {
		k := b.contentKey()
		byKey[k] = append(byKey[k], b)
	}
	for i, b := range nb {
		k := b.contentKey()
		q := byKey[k]
		for j, ob := range q {
			if sameBlockContent(ob, b) {
				nb[i] = ob
				byKey[k] = append(q[:j:j], q[j+1:]...)
				break
			}
		}
	}
	return nb
}

// contentKey hashes the block's labels and full instruction content.
// Any hash is sound here — reuseBlocks verifies every key match with
// sameBlockContent — so the fields are mixed in binary, FNV-1a style,
// without formatting: an instruction's small fields share one word, and
// strings are length-prefixed.
func (b *Block) contentKey() uint64 {
	h := uint64(fnvOffset)
	for _, l := range b.Labels {
		h = mixString(h, l)
	}
	h = mixWord(h, uint64(len(b.Labels)))
	for i := range b.Instrs {
		in := &b.Instrs[i]
		w := uint64(in.Op) | uint64(in.Cond)<<8 | uint64(in.Rd)<<16 | uint64(in.Rn)<<24 |
			uint64(in.Rm)<<32 | uint64(in.Ra)<<40 | uint64(in.Shift)<<48
		if in.SetS {
			w |= 1 << 56
		}
		if in.HasImm {
			w |= 1 << 57
		}
		h = mixWord(h, w)
		h = mixWord(h, uint64(uint32(in.ShAmt))|uint64(uint32(in.Imm))<<32)
		h = mixWord(h, uint64(in.Reglist))
		h = mixString(h, in.Target)
	}
	return h
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// mixWord folds one 64-bit word into an FNV-1a style hash.
func mixWord(h, w uint64) uint64 { return (h ^ w) * fnvPrime }

// mixString folds s, length first, into an FNV-1a style hash.
func mixString(h uint64, s string) uint64 {
	h = mixWord(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func sameBlockContent(a, b *Block) bool {
	if len(a.Labels) != len(b.Labels) || len(a.Instrs) != len(b.Instrs) {
		return false
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			return false
		}
	}
	for i := range a.Instrs {
		if a.Instrs[i] != b.Instrs[i] {
			return false
		}
	}
	return true
}

// Reassemble converts the (possibly rewritten) blocks back into a loader
// program that can be relinked.
func Reassemble(p *Program) *loader.Program {
	out := &loader.Program{Data: p.Data.Data}
	for _, fn := range p.Funcs {
		lf := &loader.Function{Name: fn.Name, LRSaved: fn.LRSaved, Code: flatten(fn)}
		out.Funcs = append(out.Funcs, lf)
	}
	return out
}

// Terminator returns the block's final instruction if it is a control
// transfer (conditional or not), else nil (fall-through blocks).
func (b *Block) Terminator() *arm.Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := &b.Instrs[len(b.Instrs)-1]
	switch last.Op {
	case arm.B, arm.BX:
		return last
	case arm.POP:
		if last.Reglist&(1<<arm.PC) != 0 {
			return last
		}
	case arm.SWI:
		if last.Imm == arm.SysExit {
			return last
		}
	}
	return nil
}

// CountInstrs returns the number of executable instructions in the
// program view.
func (p *Program) CountInstrs() int {
	n := 0
	for _, b := range p.Blocks {
		n += len(b.Instrs)
	}
	return n
}
