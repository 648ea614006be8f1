package cfg

import (
	"testing"

	"graphpa/internal/arm"
	"graphpa/internal/asm"
	"graphpa/internal/link"
	"graphpa/internal/loader"
)

// loadProgram builds a loader.Program straight from assembly source.
func loadProgram(t *testing.T, src string) *loader.Program {
	t.Helper()
	u, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	img, err := link.Link(u)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := loader.Load(img)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

const blockSrc = `
_start:
	bl main
	mov r0, #0
	swi 0
	.pool
main:
	push {r4, lr}
	mov r0, #0
	mov r1, #5
loop:
	add r0, r0, r1
	subs r1, r1, #1
	bne loop
	pop {r4, pc}
	.pool
`

func TestBuildBlocks(t *testing.T) {
	p := Build(loadProgram(t, blockSrc))
	if len(p.Funcs) != 2 {
		t.Fatalf("funcs = %d", len(p.Funcs))
	}
	start, main := p.Funcs[0], p.Funcs[1]
	// _start: "bl main; mov; swi 0" is one block (calls do not end
	// blocks, exit does).
	if len(start.Blocks) != 1 {
		t.Errorf("_start blocks = %d, want 1", len(start.Blocks))
	}
	if got := len(start.Blocks[0].Instrs); got != 3 {
		t.Errorf("_start block size = %d, want 3", got)
	}
	// main: [push,mov,mov] [add,subs,bne] [pop]
	if len(main.Blocks) != 3 {
		t.Fatalf("main blocks = %d, want 3", len(main.Blocks))
	}
	sizes := []int{3, 3, 1}
	for i, b := range main.Blocks {
		if len(b.Instrs) != sizes[i] {
			t.Errorf("main block %d size = %d, want %d", i, len(b.Instrs), sizes[i])
		}
	}
	if main.Blocks[1].Labels[0] != "loop" {
		t.Errorf("loop label on wrong block: %v", main.Blocks[1].Labels)
	}
	if !main.LRSaved || start.LRSaved {
		t.Error("LRSaved flags wrong")
	}
	// IDs are unique and dense.
	for i, b := range p.Blocks {
		if b.ID != i {
			t.Errorf("block %d has ID %d", i, b.ID)
		}
	}
}

func TestTerminator(t *testing.T) {
	p := Build(loadProgram(t, blockSrc))
	main := p.Funcs[1]
	if main.Blocks[0].Terminator() != nil {
		t.Error("fall-through block should have no terminator")
	}
	if tm := main.Blocks[1].Terminator(); tm == nil || tm.Op != arm.B || tm.Cond != arm.NE {
		t.Error("bne should be a terminator")
	}
	if tm := main.Blocks[2].Terminator(); tm == nil || tm.Op != arm.POP {
		t.Error("pop {pc} should be a terminator")
	}
}

func TestReassembleRoundTrip(t *testing.T) {
	prog := loadProgram(t, blockSrc)
	before := prog.CountInstrs()
	p := Build(prog)
	back := Reassemble(p)
	if back.CountInstrs() != before {
		t.Errorf("instruction count changed: %d -> %d", before, back.CountInstrs())
	}
	if _, err := back.Relink(); err != nil {
		t.Fatalf("relink after reassemble: %v", err)
	}
	if p.CountInstrs() != before {
		t.Errorf("CountInstrs = %d, want %d", p.CountInstrs(), before)
	}
}

func TestResplitPreservesBlockIdentity(t *testing.T) {
	p := Build(loadProgram(t, blockSrc))
	main := p.Funcs[1]
	if len(main.Blocks) != 3 {
		t.Fatalf("main blocks = %d, want 3", len(main.Blocks))
	}
	before := append([]*Block(nil), p.Blocks...)

	// A resplit of an unchanged (but dirty-marked) function must keep
	// every block object: pointer-keyed caches stay valid.
	p.Resplit(map[*Func]bool{main: true})
	for i, b := range p.Blocks {
		if b != before[i] {
			t.Fatalf("block %d replaced by a content-identical resplit", i)
		}
	}

	// Rewrite one block the way extraction does: install a fresh
	// instruction slice with one changed instruction.
	b0 := main.Blocks[0]
	fresh := append([]arm.Instr(nil), b0.Instrs...)
	fresh[2].Imm = 6 // mov r1, #5 -> #6
	b0.Instrs = fresh
	p.Resplit(map[*Func]bool{main: true})

	// Untouched blocks keep their identity; the rewritten block keeps its
	// object too (it matches its own current content), carrying the fresh
	// slice so slice-identity caches see the change.
	if main.Blocks[0] != b0 {
		t.Errorf("rewritten block lost its object identity")
	}
	if &main.Blocks[0].Instrs[0] != &fresh[0] {
		t.Errorf("rewritten block lost its fresh instruction slice")
	}
	if main.Blocks[1] != before[2] || main.Blocks[2] != before[3] {
		t.Errorf("untouched blocks of the dirty function were replaced")
	}
	if p.Funcs[0].Blocks[0] != before[0] {
		t.Errorf("block of a clean function was replaced")
	}

	// The result must be structurally identical to a full rebuild.
	rb := Build(Reassemble(p))
	if len(rb.Blocks) != len(p.Blocks) {
		t.Fatalf("resplit blocks = %d, rebuild = %d", len(p.Blocks), len(rb.Blocks))
	}
	for i, b := range p.Blocks {
		r := rb.Blocks[i]
		if b.ID != i || r.ID != i {
			t.Errorf("block %d: IDs %d vs %d", i, b.ID, r.ID)
		}
		if len(b.Labels) != len(r.Labels) || len(b.Instrs) != len(r.Instrs) {
			t.Fatalf("block %d: shape differs from full rebuild", i)
		}
		for j := range b.Labels {
			if b.Labels[j] != r.Labels[j] {
				t.Errorf("block %d label %d: %q vs %q", i, j, b.Labels[j], r.Labels[j])
			}
		}
		for j := range b.Instrs {
			if b.Instrs[j] != r.Instrs[j] {
				t.Errorf("block %d instr %d differs from full rebuild", i, j)
			}
		}
	}
}

// TestContentKeyBinary: content-equal blocks share a key, a change to
// any single label or instruction field moves it, and hashing a block
// allocates nothing.
func TestContentKeyBinary(t *testing.T) {
	p := Build(loadProgram(t, blockSrc))
	b := p.Funcs[1].Blocks[1] // loop: add, subs, bne
	clone := func() *Block {
		return &Block{Labels: append([]string(nil), b.Labels...), Instrs: append([]arm.Instr(nil), b.Instrs...)}
	}
	key := b.contentKey()
	if clone().contentKey() != key {
		t.Fatal("content-equal blocks hash differently")
	}
	edits := map[string]func(*Block){
		"label":   func(c *Block) { c.Labels[0] += "x" },
		"nolabel": func(c *Block) { c.Labels = nil },
		"op":      func(c *Block) { c.Instrs[0].Op = arm.SUB },
		"cond":    func(c *Block) { c.Instrs[2].Cond = arm.EQ },
		"sets":    func(c *Block) { c.Instrs[0].SetS = !c.Instrs[0].SetS },
		"rd":      func(c *Block) { c.Instrs[0].Rd = arm.R7 },
		"rn":      func(c *Block) { c.Instrs[0].Rn = arm.R7 },
		"rm":      func(c *Block) { c.Instrs[0].Rm = arm.R7 },
		"ra":      func(c *Block) { c.Instrs[0].Ra = arm.R7 },
		"shift":   func(c *Block) { c.Instrs[0].Shift++ },
		"shamt":   func(c *Block) { c.Instrs[0].ShAmt++ },
		"imm":     func(c *Block) { c.Instrs[1].Imm++ },
		"hasimm":  func(c *Block) { c.Instrs[1].HasImm = !c.Instrs[1].HasImm },
		"reglist": func(c *Block) { c.Instrs[0].Reglist = 1 },
		"target":  func(c *Block) { c.Instrs[2].Target += "x" },
		"drop":    func(c *Block) { c.Instrs = c.Instrs[:2] },
	}
	for name, edit := range edits {
		c := clone()
		edit(c)
		if sameBlockContent(b, c) {
			t.Fatalf("%s: edit left the content unchanged", name)
		}
		if c.contentKey() == key {
			t.Errorf("%s: edited block keeps the key", name)
		}
	}
	if avg := testing.AllocsPerRun(100, func() { b.contentKey() }); avg != 0 {
		t.Errorf("contentKey allocated %.1f objects per call; want 0", avg)
	}
}
