// Package asm assembles and prints the textual form of the arm-style
// instruction set. A translation unit holds a text stream (instructions
// interleaved with labels and .pool literal-barrier directives) and a data
// section; the static linker (internal/link) lays units out, materialises
// literal pools and produces an executable image.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"graphpa/internal/arm"
)

// DataKind discriminates data-section items.
type DataKind uint8

// Data item kinds.
const (
	DataLabel DataKind = iota // a symbol definition
	DataWord                  // one 32-bit word: constant or address-of-symbol
	DataBytes                 // raw bytes (e.g. .asciz), padded to words at layout
	DataSpace                 // n zero bytes
)

// DataItem is one entry of a unit's data section.
type DataItem struct {
	Kind  DataKind
	Label string // DataLabel
	Value int32  // DataWord constant
	Sym   string // DataWord address-of-symbol
	Bytes []byte // DataBytes
	Space int32  // DataSpace size in bytes
}

// Unit is one assembled translation unit.
type Unit struct {
	Text []arm.Instr
	Data []DataItem
}

// PoolBarrier is the pseudo-instruction form of the .pool directive: the
// linker flushes pending literal-pool entries at it. It is represented as
// a NOP-opcode instruction with this marker target so that []arm.Instr
// remains the single stream type; PoolBarriers never survive linking.
const PoolBarrier = ".pool"

// IsPoolBarrier reports whether in is a .pool directive.
func IsPoolBarrier(in *arm.Instr) bool {
	return in.Op == arm.NOP && in.Target == PoolBarrier
}

// NewPoolBarrier returns a .pool directive.
func NewPoolBarrier() arm.Instr {
	in := arm.NewInstr(arm.NOP)
	in.Target = PoolBarrier
	return in
}

// Print renders the unit as assembly text that Parse accepts.
func Print(u *Unit) string {
	var b strings.Builder
	b.WriteString(".text\n")
	b.WriteString(PrintText(u.Text))
	if len(u.Data) > 0 {
		b.WriteString(".data\n")
		for _, d := range u.Data {
			switch d.Kind {
			case DataLabel:
				fmt.Fprintf(&b, "%s:\n", d.Label)
			case DataWord:
				if d.Sym != "" {
					fmt.Fprintf(&b, "\t.word %s\n", d.Sym)
				} else {
					fmt.Fprintf(&b, "\t.word %d\n", d.Value)
				}
			case DataBytes:
				// .asciz supplies the terminator Parse appends; bytes
				// without one (a char array's initialiser) stay .ascii.
				if n := len(d.Bytes); n > 0 && d.Bytes[n-1] == 0 {
					fmt.Fprintf(&b, "\t.asciz %s\n", quoteBytes(d.Bytes[:n-1]))
				} else {
					fmt.Fprintf(&b, "\t.ascii %s\n", quoteBytes(d.Bytes))
				}
			case DataSpace:
				fmt.Fprintf(&b, "\t.space %d\n", d.Space)
			}
		}
	}
	return b.String()
}

// commentSafe escapes the comment markers Parse strips before it reads
// a line, so a string literal never loses its tail to them. Quote emits
// neither character inside an escape sequence, so the rewrite is exact.
var commentSafe = strings.NewReplacer("@", `\x40`, "/", `\x2f`)

// quoteBytes renders b as a double-quoted literal that strconv.Unquote
// (and so Parse) reads back byte for byte.
func quoteBytes(b []byte) string {
	return commentSafe.Replace(strconv.Quote(string(b)))
}

// PrintText renders an instruction stream as assembly text, one
// instruction per line, labels unindented.
func PrintText(text []arm.Instr) string {
	var b strings.Builder
	for i := range text {
		in := &text[i]
		if IsPoolBarrier(in) {
			b.WriteString("\t.pool\n")
			continue
		}
		if in.Op == arm.LABEL {
			fmt.Fprintf(&b, "%s\n", in.String())
			continue
		}
		fmt.Fprintf(&b, "\t%s\n", in.String())
	}
	return b.String()
}
