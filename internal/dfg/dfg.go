// Package dfg builds the per-basic-block data-flow graphs that graph-based
// procedural abstraction mines (paper §2.1 phase 6). Nodes are the block's
// instructions; edges are every ordering constraint between them:
// register true/anti/output dependences (with the register as part of the
// edge label), conservative memory ordering, and control edges that pin
// the block terminator last.
//
// Including anti and output dependences in the mined structure is what
// makes two embeddings of one fragment interchangeable: identical
// instruction sets with identical internal constraint structure admit the
// same schedules, so one outlined body serves every embedding.
package dfg

import (
	"fmt"
	"slices"

	"graphpa/internal/arm"
	"graphpa/internal/cfg"
)

// DepKind classifies an edge.
type DepKind uint8

// Dependence kinds.
const (
	RAW    DepKind = iota // true dependence through a register
	WAR                   // anti dependence through a register
	WAW                   // output dependence through a register
	MemRAW                // load after store
	MemWAR                // store after load
	MemWAW                // store after store
	Ctl                   // terminator ordering
)

var kindNames = [...]string{"raw", "war", "waw", "mraw", "mwar", "mwaw", "ctl"}

func (k DepKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("dep?%d", uint8(k))
}

// Edge is one dependence: instruction From must execute before To.
type Edge struct {
	From, To int
	Kind     DepKind
	Reg      arm.Reg // for register dependences; RegNone otherwise
}

// Label renders the edge label used by the miner.
func (e Edge) Label() string {
	if e.Reg != arm.RegNone {
		return e.Kind.String() + ":" + e.Reg.String()
	}
	return e.Kind.String()
}

// Graph is the dependence graph of one basic block. Node i is
// Block.Instrs[i]; all edges run from a lower to a higher index, so the
// graph is acyclic by construction.
type Graph struct {
	Block *cfg.Block
	Edges []Edge

	succ [][]int // adjacency by node
	pred [][]int
	in   []int32 // Edges[in[i]:in[i+1]] are the edges into node i

	labels []string // MemoLabels cache; nil until filled
}

// Build constructs the dependence graph of a block.
//
// calls, when non-nil, maps procedure names to interprocedural register-
// effect summaries that REPLACE the generic ABI assumption for bl
// instructions. The generic assumption (callees clobber r0-r3/r12 and
// nothing else) holds for compiler-emitted procedures but not for the
// procedures procedural abstraction itself creates, which read and write
// whatever registers their fragment used: later optimization rounds must
// know their real footprints or they will move code across a call that
// depends on it. Callers without post-PA procedures (e.g. the code
// generator's scheduler) may pass nil.
func Build(b *cfg.Block, calls map[string]arm.Effects) *Graph {
	g := &Graph{Block: b}
	n := len(b.Instrs)

	lastWrite := map[arm.Reg]int{} // reg -> node of last write
	readsSince := map[arm.Reg][]int{}
	lastStore := -1
	var loadsSince []int

	// Edges are drawn in nondecreasing To order (see below), so a
	// duplicate can only sit in the current To run, g.Edges[run:].
	run := 0
	addEdge := func(from, to int, kind DepKind, reg arm.Reg) {
		if from == to || from < 0 {
			return
		}
		if n := len(g.Edges); n > 0 && g.Edges[n-1].To != to {
			run = n
		}
		e := Edge{From: from, To: to, Kind: kind, Reg: reg}
		if slices.Contains(g.Edges[run:], e) {
			return
		}
		g.Edges = append(g.Edges, e)
	}

	for i := 0; i < n; i++ {
		in := &b.Instrs[i]
		e := arm.EffectsOf(in)
		if in.Op == arm.BL {
			if s, ok := calls[in.Target]; ok {
				e = s
			}
		}
		for _, r := range e.Reads.Regs() {
			if w, ok := lastWrite[r]; ok {
				addEdge(w, i, RAW, r)
			}
		}
		for _, r := range e.Writes.Regs() {
			for _, rd := range readsSince[r] {
				addEdge(rd, i, WAR, r)
			}
			if w, ok := lastWrite[r]; ok {
				addEdge(w, i, WAW, r)
			}
		}
		if e.LoadsMem {
			addEdge(lastStore, i, MemRAW, arm.RegNone)
		}
		if e.StoresMem {
			for _, ld := range loadsSince {
				addEdge(ld, i, MemWAR, arm.RegNone)
			}
			addEdge(lastStore, i, MemWAW, arm.RegNone)
		}
		// Update state after edges are drawn.
		for _, r := range e.Writes.Regs() {
			lastWrite[r] = i
			readsSince[r] = nil
		}
		for _, r := range e.Reads.Regs() {
			readsSince[r] = append(readsSince[r], i)
		}
		if e.StoresMem {
			lastStore = i
			loadsSince = nil
		}
		if e.LoadsMem {
			loadsSince = append(loadsSince, i)
		}
	}

	// Control edges: the terminator must stay last. It suffices to order
	// the dependence sinks before it; everything else reaches a sink.
	if term := b.Terminator(); term != nil {
		t := n - 1
		hasOut := make([]bool, n)
		for _, e := range g.Edges {
			hasOut[e.From] = true
		}
		for i := 0; i < t; i++ {
			if !hasOut[i] {
				addEdge(i, t, Ctl, arm.RegNone)
			}
		}
	}

	// Edges are emitted in nondecreasing To order: node i's clauses above
	// draw only edges into i, and the control edges into the terminator
	// come last. So each node's in-edges are one contiguous run.
	g.succ = make([][]int, n)
	g.pred = make([][]int, n)
	g.in = make([]int32, n+1)
	for k, e := range g.Edges {
		if k > 0 && e.To < g.Edges[k-1].To {
			panic("dfg: edges out of To order")
		}
		g.succ[e.From] = append(g.succ[e.From], e.To)
		g.pred[e.To] = append(g.pred[e.To], e.From)
		g.in[e.To+1]++
	}
	for i := 0; i < n; i++ {
		g.in[i+1] += g.in[i]
	}
	return g
}

// N returns the node count.
func (g *Graph) N() int { return len(g.Block.Instrs) }

// NodeLabel returns the miner's node label: the canonical instruction
// text (strict identity matching, paper §3.5).
func (g *Graph) NodeLabel(i int) string {
	if g.labels != nil {
		return g.labels[i]
	}
	return g.Block.Instrs[i].String()
}

// MemoLabels renders and stores every node label once. The cross-round
// cache calls it when it builds a block's graph, turning every later
// round's NodeLabel into an array read instead of a fresh render.
func (g *Graph) MemoLabels() {
	if g.labels != nil {
		return
	}
	ls := make([]string, g.N())
	for i := range ls {
		ls[i] = g.Block.Instrs[i].String()
	}
	g.labels = ls
}

// Succs returns the direct successors of node i (shared slice; do not
// modify).
func (g *Graph) Succs(i int) []int { return g.succ[i] }

// InEdges returns the edges into node i, in Edges order (shared slice;
// do not modify).
func (g *Graph) InEdges(i int) []Edge { return g.Edges[g.in[i]:g.in[i+1]] }

// Preds returns the direct predecessors of node i.
func (g *Graph) Preds(i int) []int { return g.pred[i] }

// InDegree and OutDegree report dependence degrees (Table 3).
func (g *Graph) InDegree(i int) int  { return len(g.pred[i]) }
func (g *Graph) OutDegree(i int) int { return len(g.succ[i]) }

// DegreeStats aggregates Table 2 of the paper: how many instructions have
// (in ∨ out) degree greater than one.
type DegreeStats struct {
	HighDegree int // degree_in > 1 or degree_out > 1
	LowDegree  int
	// Histograms for Table 3: index 0..3 exact, index 4 means >= 4.
	In  [5]int
	Out [5]int
}

// Stats computes degree statistics over a set of graphs.
func Stats(graphs []*Graph) DegreeStats {
	var s DegreeStats
	bucket := func(d int) int {
		if d >= 4 {
			return 4
		}
		return d
	}
	for _, g := range graphs {
		for i := 0; i < g.N(); i++ {
			in, out := g.InDegree(i), g.OutDegree(i)
			if in > 1 || out > 1 {
				s.HighDegree++
			} else {
				s.LowDegree++
			}
			s.In[bucket(in)]++
			s.Out[bucket(out)]++
		}
	}
	return s
}
