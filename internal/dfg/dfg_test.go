package dfg

import (
	"testing"

	"graphpa/internal/arm"
	"graphpa/internal/asm"
	"graphpa/internal/cfg"
)

// block builds a cfg.Block from one instruction per line.
func block(t *testing.T, lines ...string) *cfg.Block {
	t.Helper()
	b := &cfg.Block{Fn: &cfg.Func{Name: "test", LRSaved: true}}
	for _, l := range lines {
		u, err := asm.Parse(l)
		if err != nil {
			t.Fatalf("parse %q: %v", l, err)
		}
		b.Instrs = append(b.Instrs, u.Text...)
	}
	return b
}

func hasEdge(g *Graph, from, to int, kind DepKind, reg arm.Reg) bool {
	for _, e := range g.Edges {
		if e.From == from && e.To == to && e.Kind == kind && e.Reg == reg {
			return true
		}
	}
	return false
}

// TestRunningExample builds the paper's Fig. 1 block and checks the core
// structure of its Fig. 2 data-flow graph.
func TestRunningExample(t *testing.T) {
	b := block(t,
		"ldr r3, [r1]!",  // 0
		"sub r2, r2, r3", // 1
		"add r4, r2, #4", // 2
		"ldr r3, [r1]!",  // 3
		"sub r2, r2, r3", // 4
		"ldr r3, [r1]!",  // 5
		"add r4, r2, #4", // 6
	)
	g := Build(b, nil)
	want := []struct {
		from, to int
		kind     DepKind
		reg      arm.Reg
	}{
		{0, 1, RAW, arm.R3}, // ldr feeds sub
		{1, 2, RAW, arm.R2}, // sub feeds add
		{0, 3, RAW, arm.R1}, // pointer bump chain
		{3, 4, RAW, arm.R3},
		{1, 4, RAW, arm.R2},
		{3, 5, RAW, arm.R1},
		{4, 6, RAW, arm.R2},
		{1, 3, WAR, arm.R3}, // sub read r3 before next ldr overwrites
		{0, 3, WAW, arm.R3},
		{2, 6, WAW, arm.R4},
		{2, 4, WAR, arm.R2},
	}
	for _, w := range want {
		if !hasEdge(g, w.from, w.to, w.kind, w.reg) {
			t.Errorf("missing edge %d -%s:%s-> %d", w.from, w.kind, w.reg, w.to)
		}
	}
	// Acyclic by construction: every edge goes forward.
	for _, e := range g.Edges {
		if e.From >= e.To {
			t.Errorf("backward edge %d -> %d", e.From, e.To)
		}
	}
}

func TestMemoryOrdering(t *testing.T) {
	b := block(t,
		"str r0, [r1]",     // 0
		"ldr r2, [r3]",     // 1 load after store
		"ldr r4, [r5]",     // 2
		"str r6, [r7]",     // 3 store after loads and store
		"str r6, [r7, #4]", // 4 store after store
	)
	g := Build(b, nil)
	checks := []struct {
		from, to int
		kind     DepKind
	}{
		{0, 1, MemRAW},
		{0, 2, MemRAW},
		{1, 3, MemWAR},
		{2, 3, MemWAR},
		{0, 3, MemWAW},
		{3, 4, MemWAW},
	}
	for _, c := range checks {
		if !hasEdge(g, c.from, c.to, c.kind, arm.RegNone) {
			t.Errorf("missing %s edge %d -> %d", c.kind, c.from, c.to)
		}
	}
	// No ordering between the two loads.
	if hasEdge(g, 1, 2, MemRAW, arm.RegNone) || hasEdge(g, 1, 2, MemWAR, arm.RegNone) {
		t.Error("loads must not be ordered against each other")
	}
}

func TestLiteralLoadUnordered(t *testing.T) {
	b := block(t,
		"str r0, [r1]",
		"ldr r2, =table",
	)
	g := Build(b, nil)
	for _, e := range g.Edges {
		if e.Kind == MemRAW {
			t.Error("literal-pool loads must not order against data stores")
		}
	}
}

func TestFlagDependences(t *testing.T) {
	b := block(t,
		"cmp r0, #0",   // 0 writes cpsr
		"moveq r1, #1", // 1 reads cpsr
		"movne r1, #2", // 2 reads cpsr
		"cmp r2, #0",   // 3 writes cpsr again
		"moveq r4, #1", // 4
	)
	g := Build(b, nil)
	if !hasEdge(g, 0, 1, RAW, arm.CPSR) || !hasEdge(g, 0, 2, RAW, arm.CPSR) {
		t.Error("predicated instructions must depend on cmp")
	}
	if !hasEdge(g, 1, 3, WAR, arm.CPSR) || !hasEdge(g, 2, 3, WAR, arm.CPSR) {
		t.Error("second cmp must wait for flag readers")
	}
	if !hasEdge(g, 0, 3, WAW, arm.CPSR) {
		t.Error("flag writers must be ordered")
	}
	if !hasEdge(g, 3, 4, RAW, arm.CPSR) {
		t.Error("moveq must read the second cmp")
	}
	if hasEdge(g, 0, 4, RAW, arm.CPSR) {
		t.Error("moveq must not read the first cmp")
	}
	// Conditional moves are read-modify-write on their destination: the
	// two movs on r1 must be ordered.
	if !hasEdge(g, 1, 2, WAW, arm.R1) {
		t.Error("predicated writes to the same register must stay ordered")
	}
}

func TestControlEdges(t *testing.T) {
	b := block(t,
		"add r0, r0, #1", // 0: feeds nothing -> ctl edge to terminator
		"add r1, r1, #1", // 1
		"cmp r1, #10",    // 2: feeds terminator via cpsr
		"bne loop",       // 3
	)
	g := Build(b, nil)
	if !hasEdge(g, 0, 3, Ctl, arm.RegNone) {
		t.Error("sink must get a control edge to the terminator")
	}
	if !hasEdge(g, 2, 3, RAW, arm.CPSR) {
		t.Error("conditional branch must depend on cmp")
	}
	if hasEdge(g, 2, 3, Ctl, arm.RegNone) {
		t.Error("no control edge needed when a dependence already orders the node")
	}
	// Node 1 feeds cmp? no — cmp reads r1. It does: 1 -> 2 RAW r1.
	if !hasEdge(g, 1, 2, RAW, arm.R1) {
		t.Error("r1 chain broken")
	}
}

func TestCallBarrier(t *testing.T) {
	b := block(t,
		"str r4, [sp, #4]", // 0
		"bl helper",        // 1: full memory barrier
		"ldr r5, [sp, #4]", // 2
	)
	g := Build(b, nil)
	if !hasEdge(g, 0, 1, MemRAW, arm.RegNone) && !hasEdge(g, 0, 1, MemWAW, arm.RegNone) {
		t.Error("call must be ordered after preceding store")
	}
	if !hasEdge(g, 1, 2, MemRAW, arm.RegNone) {
		t.Error("load must be ordered after call")
	}
}

func TestStatsTable2And3(t *testing.T) {
	b := block(t,
		"ldr r3, [r1]!",
		"sub r2, r2, r3",
		"add r4, r2, #4",
		"ldr r3, [r1]!",
		"sub r2, r2, r3",
		"ldr r3, [r1]!",
		"add r4, r2, #4",
	)
	g := Build(b, nil)
	s := Stats([]*Graph{g})
	if s.HighDegree+s.LowDegree != 7 {
		t.Errorf("stats cover %d nodes, want 7", s.HighDegree+s.LowDegree)
	}
	if s.HighDegree == 0 {
		t.Error("running example must have high-degree nodes")
	}
	totalIn, totalOut := 0, 0
	for i := 0; i < 5; i++ {
		totalIn += s.In[i]
		totalOut += s.Out[i]
	}
	if totalIn != 7 || totalOut != 7 {
		t.Errorf("histograms cover %d/%d nodes", totalIn, totalOut)
	}
}

func TestEdgeLabels(t *testing.T) {
	e := Edge{Kind: RAW, Reg: arm.R2}
	if e.Label() != "raw:r2" {
		t.Errorf("label = %q", e.Label())
	}
	e = Edge{Kind: MemWAW, Reg: arm.RegNone}
	if e.Label() != "mwaw" {
		t.Errorf("label = %q", e.Label())
	}
}

func TestAdjacency(t *testing.T) {
	b := block(t,
		"mov r0, #1",
		"add r1, r0, #2",
		"add r2, r1, r0",
	)
	g := Build(b, nil)
	if g.OutDegree(0) != 2 || g.InDegree(2) != 2 {
		t.Errorf("degrees wrong: out0=%d in2=%d", g.OutDegree(0), g.InDegree(2))
	}
}

// TestInEdges checks the in-edge index against the edge list: InEdges(i)
// holds each edge into i exactly once and nothing else, on a block with
// register, flag, memory and control edges (the control edges into the
// terminator are emitted after every other edge).
func TestInEdges(t *testing.T) {
	b := block(t,
		"ldr r3, [r1]!",  // 0
		"str r3, [r2]",   // 1
		"sub r2, r2, r3", // 2
		"add r4, r2, #4", // 3: sink -> ctl edge
		"ldr r5, [r1]",   // 4: sink -> ctl edge
		"cmp r2, #0",     // 5
		"bne loop",       // 6
	)
	g := Build(b, nil)
	if !hasEdge(g, 3, 6, Ctl, arm.RegNone) {
		t.Fatal("fixture must carry control edges")
	}
	seen := make(map[Edge]int)
	for i := 0; i < g.N(); i++ {
		for _, e := range g.InEdges(i) {
			if e.To != i {
				t.Errorf("InEdges(%d) lists %+v", i, e)
			}
			seen[e]++
		}
	}
	for _, e := range g.Edges {
		if seen[e] != 1 {
			t.Errorf("edge %+v listed %d times by InEdges", e, seen[e])
		}
	}
	if len(seen) != len(g.Edges) {
		t.Errorf("InEdges lists %d distinct edges, graph has %d", len(seen), len(g.Edges))
	}
}
