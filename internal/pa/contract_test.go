package pa

import (
	"math/rand"
	"testing"

	"graphpa/internal/arm"
	"graphpa/internal/asm"
	"graphpa/internal/cfg"
	"graphpa/internal/dfg"
)

// scheduleOK is the reference verdict: the ok of a full trial schedule.
func scheduleOK(g *dfg.Graph, frags [][]int) bool {
	calls := make([]arm.Instr, len(frags))
	for i := range calls {
		calls[i] = arm.NewInstr(arm.BL)
		calls[i].Target = "__probe"
	}
	_, ok := ScheduleContracted(g, frags, calls)
	return ok
}

// randomFrags draws 1–4 disjoint sorted fragments of 1–4 nodes each.
// Half the draws come from a narrow window of the block, so acyclic
// multi-fragment contractions are common, not just cyclic ones.
func randomFrags(rng *rand.Rand, n int) [][]int {
	nf := 1 + rng.Intn(4)
	sizes := make([]int, nf)
	total := 0
	for i := range sizes {
		sizes[i] = 1 + rng.Intn(4)
		total += sizes[i]
	}
	if total > n {
		return nil
	}
	lo, width := 0, n
	if rng.Intn(2) == 0 {
		width = min(n, total+rng.Intn(total+1))
		lo = rng.Intn(n - width + 1)
	}
	perm := rng.Perm(width)
	var frags [][]int
	for _, k := range sizes {
		f := make([]int, k)
		for i := range f {
			f[i] = lo + perm[i]
		}
		perm = perm[k:]
		frags = append(frags, sortedNodes(f))
	}
	return frags
}

// TestContractOKMatchesSchedule runs one convexScratch across seeded
// random disjoint fragment sets on every block of all eight benchmark
// programs and requires ScheduleContracted's verdict every time, with
// both outcomes seen for multi-fragment sets.
func TestContractOKMatchesSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sc convexScratch
	verdicts := map[bool]int{}
	for _, name := range []string{"bitcnts", "crc", "dijkstra", "patricia", "qsort", "rijndael", "search", "sha"} {
		for _, g := range benchRoundOneGraphs(t, name) {
			for trial := 0; trial < 40; trial++ {
				frags := randomFrags(rng, g.N())
				if frags == nil {
					continue
				}
				got, want := sc.contractOK(g, frags), scheduleOK(g, frags)
				if got != want {
					t.Fatalf("%s block %d frags %v: contractOK = %v, ScheduleContracted %v", name, g.Block.ID, frags, got, want)
				}
				if len(frags) > 1 {
					verdicts[got]++
				}
			}
		}
	}
	t.Logf("multi-fragment verdicts: %v", verdicts)
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("verdicts %v: both outcomes must be exercised", verdicts)
	}
}

// TestContractOKCycles pins the two ways a contraction goes cyclic: the
// paper's Fig. 9 re-entry through an external instruction, and a cycle
// across fragments that are each convex alone (A→x→B→y→A).
func TestContractOKCycles(t *testing.T) {
	block := func(lines ...string) *dfg.Graph {
		b := &cfg.Block{Fn: &cfg.Func{Name: "f", LRSaved: true}}
		for _, s := range lines {
			u, err := asm.Parse(s)
			if err != nil {
				t.Fatal(err)
			}
			b.Instrs = append(b.Instrs, u.Text...)
		}
		return dfg.Build(b, nil)
	}
	fig9 := block(
		"ldr r3, [r1]",   // 0 fragment
		"sub r2, r2, r3", // 1 external: 0 -> 1
		"add r4, r2, #4", // 2 fragment: 1 -> 2
	)
	cross := block(
		"mov r1, #1",     // 0 A
		"mov r2, #2",     // 1 B
		"add r3, r1, #1", // 2 x: A -> x
		"add r4, r2, #1", // 3 y: B -> y
		"add r5, r3, #1", // 4 B: x -> B
		"add r6, r4, #1", // 5 A: y -> A
	)
	var sc convexScratch
	for _, c := range []struct {
		name  string
		g     *dfg.Graph
		frags [][]int
		want  bool
	}{
		{"fig9 re-entry", fig9, [][]int{{0, 2}}, false},
		{"fig9 convex", fig9, [][]int{{0, 1}}, true},
		{"fig9 split", fig9, [][]int{{0}, {2}}, true},
		{"cross A alone", cross, [][]int{{0, 5}}, true},
		{"cross B alone", cross, [][]int{{1, 4}}, true},
		{"cross A and B", cross, [][]int{{0, 5}, {1, 4}}, false},
		{"cross B and A", cross, [][]int{{1, 4}, {0, 5}}, false},
		{"cross A and x", cross, [][]int{{0, 5}, {2}}, true},
	} {
		if ref := scheduleOK(c.g, c.frags); ref != c.want {
			t.Fatalf("%s: ScheduleContracted ok = %v, want %v", c.name, ref, c.want)
		}
		if got := sc.contractOK(c.g, c.frags); got != c.want {
			t.Errorf("%s: contractOK = %v, want %v", c.name, got, c.want)
		}
	}
}
