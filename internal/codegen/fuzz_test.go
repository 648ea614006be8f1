package codegen_test

import (
	"testing"

	"graphpa/internal/bench"
	"graphpa/internal/codegen"
	"graphpa/internal/link"
)

// FuzzCompile feeds the mini-C front end arbitrary source. Compile may
// reject it with an error, but must never panic, and a unit it accepts
// must go through linking against the runtime library without a panic
// (a link error, such as a duplicate symbol, is fine). The seeds are the
// benchmark programs; testdata/fuzz/FuzzCompile holds inputs that once
// broke the property.
func FuzzCompile(f *testing.F) {
	for _, name := range bench.Names {
		src, err := bench.Source(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	rt, err := link.RuntimeUnit()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src string) {
		u, err := codegen.Compile(src, bench.DefaultCodegen())
		if err != nil {
			return
		}
		_, _ = link.Link(u, rt)
	})
}
