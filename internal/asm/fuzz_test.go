package asm_test

import (
	"testing"

	"graphpa/internal/asm"
	"graphpa/internal/bench"
	"graphpa/internal/codegen"
	"graphpa/internal/link"
)

// compiledUnits compiles every benchmark program to its unlinked unit.
func compiledUnits(tb testing.TB) map[string]*asm.Unit {
	tb.Helper()
	units := map[string]*asm.Unit{}
	for _, name := range bench.Names {
		src, err := bench.Source(name)
		if err != nil {
			tb.Fatal(err)
		}
		u, err := codegen.Compile(src, bench.DefaultCodegen())
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		units[name] = u
	}
	return units
}

// TestPrintParseImageIdentity: printing a compiled unit and parsing the
// text back must give a unit that links to the very same image, for
// every benchmark. Strings must keep exactly their bytes — one NUL
// terminator, and none added to a char array's initialiser.
func TestPrintParseImageIdentity(t *testing.T) {
	rt, err := link.RuntimeUnit()
	if err != nil {
		t.Fatal(err)
	}
	units := compiledUnits(t)
	for _, name := range bench.Names {
		u := units[name]
		want, err := link.Link(u, rt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		text := asm.Print(u)
		u2, err := asm.Parse(text)
		if err != nil {
			t.Fatalf("%s: reparse: %v", name, err)
		}
		got, err := link.Link(u2, rt)
		if err != nil {
			t.Fatalf("%s: link reparsed unit: %v", name, err)
		}
		if got.Hash() != want.Hash() {
			t.Errorf("%s: image of the reparsed unit differs (%d words, want %d)", name, len(got.Words), len(want.Words))
		}
		if again := asm.Print(u2); again != text {
			t.Errorf("%s: Print(Parse(Print(u))) differs from Print(u)", name)
		}
	}
}

// FuzzParse feeds the assembler arbitrary text. Parse must never panic,
// and any unit it accepts must print to text that Parse accepts again
// and that prints identically: Print∘Parse is a fixed point of Print.
// The seeds are the printed benchmark units, the runtime library and a
// data section of awkward strings;
// testdata/fuzz/FuzzParse holds inputs that once broke the property.
func FuzzParse(f *testing.F) {
	units := compiledUnits(f)
	for _, name := range bench.Names {
		f.Add(asm.Print(units[name]))
	}
	rt, err := link.RuntimeUnit()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(asm.Print(rt))
	// Strings with comment markers, escapes and no terminator.
	f.Add(".data\ns:\n\t.asciz \"a\\x40b//c\"\n\t.ascii \"\\x00\\xff\"\n\t.ascii \"\"\n")
	f.Fuzz(func(t *testing.T, src string) {
		u, err := asm.Parse(src)
		if err != nil {
			return
		}
		text := asm.Print(u)
		u2, err := asm.Parse(text)
		if err != nil {
			t.Fatalf("printed unit does not parse: %v\n%s", err, text)
		}
		if again := asm.Print(u2); again != text {
			t.Fatalf("Print(Parse(text)) is not a fixed point:\nfirst:\n%s\nsecond:\n%s", text, again)
		}
	})
}
