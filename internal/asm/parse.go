package asm

import (
	"fmt"
	"strconv"
	"strings"

	"graphpa/internal/arm"
)

// ParseError reports a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg)
}

// Parse assembles source text into a Unit. The syntax is the canonical
// instruction syntax produced by arm.Instr.String plus the directives
// .text, .data, .word, .ascii, .asciz, .space, .pool/.ltorg and .global
// (accepted and ignored). .asciz appends a NUL terminator, .ascii does
// not. Comments start with '@' or "//" and run to end of line.
func Parse(src string) (*Unit, error) {
	u := &Unit{}
	inData := false
	for lineNo, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fail := func(format string, args ...any) error {
			return &ParseError{Line: lineNo + 1, Msg: fmt.Sprintf(format, args...)}
		}

		// Labels, possibly followed by more on the same line.
		for {
			i := strings.IndexByte(line, ':')
			if i < 0 || strings.ContainsAny(line[:i], " \t,[{") {
				break
			}
			name := line[:i]
			if !validSymbol(name) {
				return nil, fail("bad label %q", name)
			}
			if inData {
				u.Data = append(u.Data, DataItem{Kind: DataLabel, Label: name})
			} else {
				lbl := arm.NewInstr(arm.LABEL)
				lbl.Target = name
				u.Text = append(u.Text, lbl)
			}
			line = strings.TrimSpace(line[i+1:])
			if line == "" {
				break
			}
		}
		if line == "" {
			continue
		}

		if strings.HasPrefix(line, ".") {
			if err := parseDirective(u, line, &inData, fail); err != nil {
				return nil, err
			}
			continue
		}
		if inData {
			return nil, fail("instruction %q in .data section", line)
		}
		in, err := parseInstr(line, fail)
		if err != nil {
			return nil, err
		}
		u.Text = append(u.Text, in)
	}
	return u, nil
}

func stripComment(line string) string {
	if i := strings.IndexByte(line, '@'); i >= 0 {
		line = line[:i]
	}
	if i := strings.Index(line, "//"); i >= 0 {
		line = line[:i]
	}
	return line
}

func validSymbol(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.', r == '$':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func parseDirective(u *Unit, line string, inData *bool, fail func(string, ...any) error) error {
	dir, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	switch dir {
	case ".text":
		*inData = false
	case ".data":
		*inData = true
	case ".global", ".globl", ".align":
		// accepted for familiarity; layout is always global and aligned
	case ".pool", ".ltorg":
		if *inData {
			return fail(".pool in data section")
		}
		u.Text = append(u.Text, NewPoolBarrier())
	case ".word":
		if v, err := strconv.ParseInt(rest, 0, 64); err == nil {
			if v < -1<<31 || v > 1<<32-1 {
				return fail(".word value out of range: %s", rest)
			}
			item := DataItem{Kind: DataWord, Value: int32(uint32(v))}
			if *inData {
				u.Data = append(u.Data, item)
			} else {
				w := arm.NewInstr(arm.WORD)
				w.Imm = item.Value
				u.Text = append(u.Text, w)
			}
			return nil
		}
		if !validSymbol(rest) {
			return fail("bad .word operand %q", rest)
		}
		if *inData {
			u.Data = append(u.Data, DataItem{Kind: DataWord, Sym: rest})
		} else {
			w := arm.NewInstr(arm.WORD)
			w.Target = rest
			u.Text = append(u.Text, w)
		}
	case ".asciz", ".string", ".ascii":
		s, err := strconv.Unquote(rest)
		if err != nil {
			return fail("bad string %s", rest)
		}
		if !*inData {
			return fail("%s outside .data", dir)
		}
		b := []byte(s)
		if dir != ".ascii" {
			b = append(b, 0)
		}
		u.Data = append(u.Data, DataItem{Kind: DataBytes, Bytes: b})
	case ".space", ".skip":
		n, err := strconv.ParseInt(rest, 0, 32)
		if err != nil || n < 0 {
			return fail("bad .space size %q", rest)
		}
		if !*inData {
			return fail(".space outside .data")
		}
		u.Data = append(u.Data, DataItem{Kind: DataSpace, Space: int32(n)})
	default:
		return fail("unknown directive %s", dir)
	}
	return nil
}

// mnemonics maps base mnemonic to opcode (addressing-mode variants of
// loads/stores are selected later from the operand syntax).
var mnemonics = map[string]arm.Op{
	"and": arm.AND, "eor": arm.EOR, "sub": arm.SUB, "rsb": arm.RSB,
	"add": arm.ADD, "adc": arm.ADC, "sbc": arm.SBC, "orr": arm.ORR,
	"bic": arm.BIC, "mov": arm.MOV, "mvn": arm.MVN, "cmp": arm.CMP,
	"cmn": arm.CMN, "tst": arm.TST, "teq": arm.TEQ, "mul": arm.MUL,
	"mla": arm.MLA, "ldr": arm.LDR, "ldrb": arm.LDRB, "str": arm.STR,
	"strb": arm.STRB, "push": arm.PUSH, "pop": arm.POP, "b": arm.B,
	"bl": arm.BL, "bx": arm.BX, "swi": arm.SWI, "nop": arm.NOP,
}

// canSetS reports whether the op accepts the "s" suffix.
func canSetS(op arm.Op) bool {
	return op.IsDataProcessing() || op.IsMove() || op == arm.MUL || op == arm.MLA
}

// splitMnemonic resolves "addeqs"-style mnemonics into op/cond/S by
// backtracking over base-mnemonic candidates, longest first.
func splitMnemonic(m string) (arm.Op, arm.Cond, bool, bool) {
	for l := len(m); l > 0; l-- {
		base := m[:l]
		op, ok := mnemonics[base]
		if !ok {
			continue
		}
		suffix := m[l:]
		setS := false
		if strings.HasSuffix(suffix, "s") && canSetS(op) {
			// "s" may also be the tail of a condition ("cs", "ls", "vs");
			// try both interpretations.
			if cond, ok := arm.ParseCond(suffix); ok {
				return op, cond, false, true
			}
			if cond, ok := arm.ParseCond(suffix[:len(suffix)-1]); ok {
				setS = true
				return op, cond, setS, true
			}
			continue
		}
		if cond, ok := arm.ParseCond(suffix); ok {
			return op, cond, false, true
		}
	}
	return arm.BAD, arm.Always, false, false
}

// operand tokenizer: splits on commas at bracket depth zero.
func splitOperands(s string) []string {
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[', '{':
			depth++
		case ']', '}':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	tail := strings.TrimSpace(s[start:])
	if tail != "" {
		out = append(out, tail)
	}
	return out
}

func parseImm(s string) (int32, bool) {
	if !strings.HasPrefix(s, "#") {
		return 0, false
	}
	v, err := strconv.ParseInt(s[1:], 0, 64)
	if err != nil || v < -1<<31 || v > 1<<32-1 {
		return 0, false
	}
	return int32(uint32(uint64(v))), true
}

// parseOp2 parses a flexible second operand spread over the trailing
// operand fields: "#imm" | "rm" | "rm, <shift> #amt".
func parseOp2(in *arm.Instr, fields []string, fail func(string, ...any) error) error {
	if len(fields) == 0 {
		return fail("missing operand")
	}
	if v, ok := parseImm(fields[0]); ok {
		if len(fields) != 1 {
			return fail("junk after immediate")
		}
		in.Imm, in.HasImm = v, true
		return nil
	}
	r, ok := arm.ParseReg(fields[0])
	if !ok {
		return fail("bad operand %q", fields[0])
	}
	in.Rm = r
	switch len(fields) {
	case 1:
		return nil
	case 2:
		kind, amt, err := parseShift(fields[1], fail)
		if err != nil {
			return err
		}
		in.Shift, in.ShAmt = kind, amt
		return nil
	}
	return fail("too many operands")
}

func parseShift(s string, fail func(string, ...any) error) (arm.ShiftKind, int32, error) {
	name, amt, ok := strings.Cut(strings.TrimSpace(s), " ")
	if !ok {
		return arm.NoShift, 0, fail("bad shift %q", s)
	}
	kind, ok := arm.ParseShift(strings.TrimSpace(name))
	if !ok {
		return arm.NoShift, 0, fail("bad shift kind %q", name)
	}
	v, ok := parseImm(strings.TrimSpace(amt))
	if !ok || v < 0 || v > 31 {
		return arm.NoShift, 0, fail("bad shift amount %q", amt)
	}
	return kind, v, nil
}

func parseReglist(s string, fail func(string, ...any) error) (uint16, error) {
	if !strings.HasPrefix(s, "{") || !strings.HasSuffix(s, "}") {
		return 0, fail("bad register list %q", s)
	}
	var mask uint16
	for _, part := range strings.Split(s[1:len(s)-1], ",") {
		part = strings.TrimSpace(part)
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			rl, ok1 := arm.ParseReg(strings.TrimSpace(lo))
			rh, ok2 := arm.ParseReg(strings.TrimSpace(hi))
			if !ok1 || !ok2 || rl > rh {
				return 0, fail("bad register range %q", part)
			}
			for r := rl; r <= rh; r++ {
				mask |= 1 << r
			}
			continue
		}
		r, ok := arm.ParseReg(part)
		if !ok {
			return 0, fail("bad register %q in list", part)
		}
		mask |= 1 << r
	}
	if mask == 0 {
		return 0, fail("empty register list")
	}
	return mask, nil
}

func parseInstr(line string, fail func(string, ...any) error) (arm.Instr, error) {
	bad := arm.NewInstr(arm.BAD)
	mn, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	op, cond, setS, ok := splitMnemonic(strings.ToLower(mn))
	if !ok {
		return bad, fail("unknown mnemonic %q", mn)
	}
	in := arm.NewInstr(op)
	in.Cond = cond
	in.SetS = setS
	ops := splitOperands(rest)

	reg := func(i int) (arm.Reg, error) {
		if i >= len(ops) {
			return arm.RegNone, fail("missing operand %d", i+1)
		}
		r, ok := arm.ParseReg(ops[i])
		if !ok {
			return arm.RegNone, fail("bad register %q", ops[i])
		}
		return r, nil
	}

	var err error
	switch {
	case op.IsDataProcessing():
		if len(ops) < 3 {
			return bad, fail("%s needs 3 operands", op)
		}
		if in.Rd, err = reg(0); err != nil {
			return bad, err
		}
		if in.Rn, err = reg(1); err != nil {
			return bad, err
		}
		return in, parseOp2(&in, ops[2:], fail)
	case op.IsMove():
		if len(ops) < 2 {
			return bad, fail("%s needs 2 operands", op)
		}
		if in.Rd, err = reg(0); err != nil {
			return bad, err
		}
		return in, parseOp2(&in, ops[1:], fail)
	case op.IsCompare():
		if len(ops) < 2 {
			return bad, fail("%s needs 2 operands", op)
		}
		if in.Rn, err = reg(0); err != nil {
			return bad, err
		}
		return in, parseOp2(&in, ops[1:], fail)
	case op == arm.MUL:
		if len(ops) != 3 {
			return bad, fail("mul needs 3 operands")
		}
		if in.Rd, err = reg(0); err != nil {
			return bad, err
		}
		if in.Rn, err = reg(1); err != nil {
			return bad, err
		}
		in.Rm, err = reg(2)
		return in, err
	case op == arm.MLA:
		if len(ops) != 4 {
			return bad, fail("mla needs 4 operands")
		}
		if in.Rd, err = reg(0); err != nil {
			return bad, err
		}
		if in.Rn, err = reg(1); err != nil {
			return bad, err
		}
		if in.Rm, err = reg(2); err != nil {
			return bad, err
		}
		in.Ra, err = reg(3)
		return in, err
	case op == arm.LDR || op == arm.LDRB || op == arm.STR || op == arm.STRB:
		return parseMem(in, ops, fail)
	case op == arm.PUSH || op == arm.POP:
		if len(ops) != 1 {
			return bad, fail("%s needs a register list", op)
		}
		in.Reglist, err = parseReglist(ops[0], fail)
		return in, err
	case op == arm.B || op == arm.BL:
		if len(ops) != 1 || !validSymbol(ops[0]) {
			return bad, fail("%s needs a label", op)
		}
		in.Target = ops[0]
		return in, nil
	case op == arm.BX:
		if len(ops) != 1 {
			return bad, fail("bx needs a register")
		}
		in.Rm, err = reg(0)
		return in, err
	case op == arm.SWI:
		if len(ops) != 1 {
			return bad, fail("swi needs a number")
		}
		v, err2 := strconv.ParseInt(ops[0], 0, 32)
		if err2 != nil {
			return bad, fail("bad swi number %q", ops[0])
		}
		in.Imm, in.HasImm = int32(v), true
		return in, nil
	case op == arm.NOP:
		if len(ops) != 0 {
			return bad, fail("nop takes no operands")
		}
		return in, nil
	}
	return bad, fail("unhandled mnemonic %q", mn)
}

// parseMem parses load/store operands, selecting the writeback opcode
// variant from the addressing syntax.
func parseMem(in arm.Instr, ops []string, fail func(string, ...any) error) (arm.Instr, error) {
	bad := arm.NewInstr(arm.BAD)
	if len(ops) < 2 {
		return bad, fail("%s needs at least 2 operands", in.Op)
	}
	rd, ok := arm.ParseReg(ops[0])
	if !ok {
		return bad, fail("bad register %q", ops[0])
	}
	in.Rd = rd

	// Literal load: ldr rd, =sym or =imm.
	if strings.HasPrefix(ops[1], "=") {
		if in.Op != arm.LDR || len(ops) != 2 {
			return bad, fail("only ldr accepts =literal")
		}
		lit := ops[1][1:]
		if v, err := strconv.ParseInt(lit, 0, 64); err == nil {
			if v < -1<<31 || v > 1<<32-1 {
				return bad, fail("literal out of range")
			}
			// A constant literal gets a synthetic symbol at link time;
			// represent it as =const:<value> so equal constants unify.
			in.Target = fmt.Sprintf("const:%d", int32(uint32(v)))
			return in, nil
		}
		if !validSymbol(lit) {
			return bad, fail("bad literal %q", lit)
		}
		in.Target = lit
		return in, nil
	}

	addr := ops[1]
	post := false
	writeback := false
	if strings.HasSuffix(addr, "!") {
		writeback = true
		addr = addr[:len(addr)-1]
	}
	if !strings.HasPrefix(addr, "[") || !strings.HasSuffix(addr, "]") {
		return bad, fail("bad address %q", ops[1])
	}
	inner := addr[1 : len(addr)-1]
	var offFields []string
	if len(ops) > 2 {
		// post-indexed: "[rn], #off" or "[rn], rm"
		if writeback {
			return bad, fail("cannot mix pre and post indexing")
		}
		if strings.Contains(inner, ",") {
			return bad, fail("post-index base must be plain [rn]")
		}
		post = true
		writeback = true
		offFields = ops[2:]
	} else {
		parts := splitOperands(inner)
		if len(parts) == 0 {
			return bad, fail("empty address %q", ops[1])
		}
		inner = parts[0]
		offFields = parts[1:]
	}
	rn, ok := arm.ParseReg(strings.TrimSpace(inner))
	if !ok {
		return bad, fail("bad base register %q", inner)
	}
	in.Rn = rn

	if len(offFields) == 0 {
		in.HasImm, in.Imm = true, 0
	} else if v, ok := parseImm(offFields[0]); ok {
		if len(offFields) != 1 {
			return bad, fail("junk after offset")
		}
		in.HasImm, in.Imm = true, v
	} else {
		rm, ok := arm.ParseReg(offFields[0])
		if !ok {
			return bad, fail("bad offset %q", offFields[0])
		}
		in.Rm = rm
		if len(offFields) == 2 {
			kind, amt, err := parseShift(offFields[1], fail)
			if err != nil {
				return bad, err
			}
			in.Shift, in.ShAmt = kind, amt
		} else if len(offFields) > 2 {
			return bad, fail("too many offset fields")
		}
	}

	if writeback {
		in.Op = writebackVariant(in.Op, post)
		if in.Op == arm.BAD {
			return bad, fail("no writeback form")
		}
	}
	return in, nil
}

func writebackVariant(op arm.Op, post bool) arm.Op {
	type key struct {
		op   arm.Op
		post bool
	}
	m := map[key]arm.Op{
		{arm.LDR, false}:  arm.LDRPREW,
		{arm.LDR, true}:   arm.LDRPOSTW,
		{arm.STR, false}:  arm.STRPREW,
		{arm.STR, true}:   arm.STRPOSTW,
		{arm.LDRB, false}: arm.LDRBPREW,
		{arm.LDRB, true}:  arm.LDRBPOSTW,
		{arm.STRB, false}: arm.STRBPREW,
		{arm.STRB, true}:  arm.STRBPOSTW,
	}
	if v, ok := m[key{op, post}]; ok {
		return v
	}
	return arm.BAD
}
