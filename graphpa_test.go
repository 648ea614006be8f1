package graphpa

import (
	"strings"
	"testing"
)

const testProg = `
int buf[32];
int fold(int x, int k) {
	int t = x * 17 + k;
	t = t ^ (t << 4);
	return t;
}
int spin(int x, int k) {
	int t = x * 17 + k;
	t = t ^ (t << 4);
	return t + 3;
}
int main() {
	int acc = 5;
	for (int i = 0; i < 32; i += 1) {
		buf[i] = fold(acc, i);
		acc = spin(buf[i], i);
	}
	int s = 0;
	for (int i = 0; i < 32; i += 1) s ^= buf[i];
	printi(s);
	return s & 127;
}
`

func TestCompileRunPublicAPI(t *testing.T) {
	bin, err := Compile(testProg, CompileOptions{Schedule: true})
	if err != nil {
		t.Fatal(err)
	}
	if bin.Instructions() <= 0 || bin.Words() <= 0 {
		t.Fatal("size queries broken")
	}
	code, out, err := bin.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if out == "" || code < 0 {
		t.Errorf("code=%d out=%q", code, out)
	}
	dis, err := bin.Disassemble()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"main:", "fold:", "push {", "bl "} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q", want)
		}
	}
}

func TestOptimizePublicAPI(t *testing.T) {
	bin, err := Compile(testProg, CompileOptions{Schedule: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, miner := range Miners() {
		opt, rep, err := bin.Optimize(OptimizeOptions{Miner: miner})
		if err != nil {
			t.Fatalf("%s: %v", miner, err)
		}
		if err := Verify(bin, opt); err != nil {
			t.Fatalf("%s: %v", miner, err)
		}
		if rep.Saved() != bin.Instructions()-opt.Instructions() {
			t.Errorf("%s: report (%d) disagrees with binaries (%d)",
				miner, rep.Saved(), bin.Instructions()-opt.Instructions())
		}
		for _, e := range rep.Extractions {
			if e.Method != "call" && e.Method != "crossjump" {
				t.Errorf("%s: bad method %q", miner, e.Method)
			}
			if e.Benefit <= 0 || e.Size < 2 || e.Occurrences < 2 {
				t.Errorf("%s: implausible extraction %+v", miner, e)
			}
		}
	}
}

func TestOptimizeDefaultsToEdgar(t *testing.T) {
	bin, err := Compile(testProg, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := bin.Optimize(OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Miner != "edgar" {
		t.Errorf("default miner = %q", rep.Miner)
	}
}

// TestNegativeOptionsRejected: out-of-range options are an error from
// the facade, never a panic inside the optimizer.
func TestNegativeOptionsRejected(t *testing.T) {
	bin, err := Compile(testProg, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []OptimizeOptions{
		{MinSupport: -1},
		{MaxFragment: -1},
		{MaxRounds: -1},
	} {
		if _, _, err := bin.Optimize(opts); err == nil || !strings.Contains(err.Error(), "non-negative") {
			t.Errorf("%+v: got error %v, want a non-negative option error", opts, err)
		}
	}
}

func TestUnknownMinerRejected(t *testing.T) {
	bin, err := Compile(testProg, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := bin.Optimize(OptimizeOptions{Miner: "frob"}); err == nil {
		t.Error("unknown miner must error")
	}
}

func TestAssemblePublicAPI(t *testing.T) {
	bin, err := Assemble("_start:\n\tmov r0, #9\n\tswi 0\n")
	if err != nil {
		t.Fatal(err)
	}
	code, _, err := bin.Run(nil)
	if err != nil || code != 9 {
		t.Errorf("code=%d err=%v", code, err)
	}
	if _, err := Assemble("_start:\n\tbogus r0\n"); err == nil {
		t.Error("bad assembly must error")
	}
}

func TestVerifyOnStdin(t *testing.T) {
	echo := `
int main() {
	int c = getc();
	while (c >= 0) { putc(c); c = getc(); }
	return 0;
}
`
	bin, err := Compile(echo, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := bin.Optimize(OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyOn(bin, opt, []byte("hello stdin")); err != nil {
		t.Fatal(err)
	}
}

func TestMaxRoundsHonoured(t *testing.T) {
	bin, err := Compile(testProg, CompileOptions{Schedule: true})
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := bin.Optimize(OptimizeOptions{MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds > 1 {
		t.Errorf("rounds = %d", rep.Rounds)
	}
}
