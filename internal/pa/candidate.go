// Package pa is the procedural-abstraction engine: it scores mined
// fragments, checks that embeddings are extractable (the paper's §3.5
// plausibility checks), rewrites blocks — outlining into new procedures or
// cross-jumping to merged tails (§2.1 phase 8) — and drives the
// mine/extract loop to a fixed point.
package pa

import (
	"bytes"
	"encoding/binary"
	"slices"

	"graphpa/internal/arm"
	"graphpa/internal/cfg"
	"graphpa/internal/dfg"
)

// Method is an extraction mechanism (paper Fig. 12).
type Method uint8

// Extraction mechanisms.
const (
	MethodCall      Method = iota // outline into a procedure, reach it with bl
	MethodCrossJump               // merge tails, reach the survivor with b
)

func (m Method) String() string {
	if m == MethodCall {
		return "call"
	}
	return "crossjump"
}

// Occurrence is one extractable embedding of a fragment: a set of
// instruction indices inside one block. DFS holds the pattern-coordinate
// mapping (DFS index -> instruction index) when the occurrence came from
// the graph miner; for contiguous sequences (SFX) it equals Nodes.
type Occurrence struct {
	Block *cfg.Block
	Graph *dfg.Graph
	Nodes []int // sorted instruction indices
	DFS   []int // pattern coordinates
}

// InducedSignature encodes the occurrence's full induced dependence
// structure in pattern coordinates: per-index instruction text plus every
// dependence edge between occurrence nodes (not only the mined pattern
// edges). Embeddings of one pattern are interchangeable — may share one
// outlined body — exactly when their signatures are equal: gSpan matches
// subgraphs, not induced subgraphs, so an embedding can carry extra
// internal anti/output dependences that constrain its legal orders.
//
// The cost scales with the fragment, not its block: only the in-edges of
// the k occurrence nodes are walked (dfg.Graph.InEdges) and each source
// is located by a linear scan of DFS, O(k²·d_in) for in-degree d_in,
// independent of the block's edge count. Texts come from Graph.NodeLabel,
// which the cross-round graph cache memoises. The encoding is binary and
// injective: uvarint k, each node's text length-prefixed in DFS order,
// then the induced edges sorted by (i, j, kind, reg), each as uvarint i,
// uvarint j, kind byte, reg byte.
func (o *Occurrence) InducedSignature() string {
	var bbuf [512]byte
	return string(o.appendInducedSignature(bbuf[:0]))
}

// appendInducedSignature appends the InducedSignature encoding to b.
func (o *Occurrence) appendInducedSignature(b []byte) []byte {
	if len(o.DFS) >= 1<<24 {
		panic("pa: fragment too large for its induced signature")
	}
	// Packed (i, j, kind, reg) tuples: numeric order is tuple order.
	var ebuf [64]uint64
	edges := ebuf[:0]
	for dj, n := range o.DFS {
		for _, e := range o.Graph.InEdges(n) {
			for di, m := range o.DFS {
				if m == e.From {
					edges = append(edges, uint64(di)<<40|uint64(dj)<<16|uint64(e.Kind)<<8|uint64(e.Reg))
					break
				}
			}
		}
	}
	slices.Sort(edges)

	b = binary.AppendUvarint(b, uint64(len(o.DFS)))
	for _, n := range o.DFS {
		l := o.Graph.NodeLabel(n)
		b = binary.AppendUvarint(b, uint64(len(l)))
		b = append(b, l...)
	}
	for _, e := range edges {
		b = binary.AppendUvarint(b, e>>40)
		b = binary.AppendUvarint(b, e>>16&(1<<24-1))
		b = append(b, byte(e>>8), byte(e))
	}
	return b
}

// Candidate is a fragment chosen for extraction with all the occurrences
// that will be rewritten.
type Candidate struct {
	Size    int // instructions per occurrence
	Occs    []Occurrence
	Method  Method
	Benefit int // net instructions saved
}

// CallBenefit is the net saving of outlining a fragment of k instructions
// occurring m times: every occurrence shrinks to one bl (m·(k−1)) and the
// new procedure costs its k instructions plus a return.
func CallBenefit(k, m int) int { return m*(k-1) - (k + 1) }

// CrossJumpBenefit is the net saving of tail-merging: one occurrence
// survives, the other m−1 shrink to one b each.
func CrossJumpBenefit(k, m int) int { return (m - 1) * (k - 1) }

// containsTerminator reports whether the node set includes the block's
// terminator instruction AND that terminator transfers control
// unconditionally. Only unconditional tails may be merged (paper §2.1
// phase 8: "ends with an unconditional return statement or a branch
// instruction"): a conditional terminator falls through, and rerouting
// its fall-through to the merge keeper's successor would change the
// program.
func containsTerminator(g *dfg.Graph, nodes []int) bool {
	term := g.Block.Terminator()
	if term == nil || !term.IsTerminator() {
		return false
	}
	last := len(g.Block.Instrs) - 1
	for _, n := range nodes {
		if n == last {
			return true
		}
	}
	return false
}

// CallSafe reports whether a function may receive outlined calls: its
// prologue must save lr (making lr dead in the body) and nothing in the
// body may observe lr. Generated PA procedures and hand-written leaves
// fail this and only participate in cross-jumping.
func CallSafe(fn *cfg.Func) bool {
	if !fn.LRSaved {
		return false
	}
	first := true
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if first {
				first = false
				continue // the recognised prologue push {.., lr}
			}
			e := arm.EffectsOf(in)
			if in.Op != arm.BL && e.Reads.Has(arm.LR) {
				return false
			}
			if in.Op == arm.POP && in.Reglist&(1<<arm.LR) != 0 {
				return false
			}
		}
	}
	return true
}

// callSafeCache memoises CallSafe per function within one mining round.
type callSafeCache map[*cfg.Func]bool

func (c callSafeCache) get(fn *cfg.Func) bool {
	if v, ok := c[fn]; ok {
		return v
	}
	v := CallSafe(fn)
	c[fn] = v
	return v
}

// callExtractable reports whether one embedding can be outlined as a
// procedure call: every instruction movable, the owning function call
// safe, and no terminator included. Scheduling feasibility (acyclic
// contraction) is checked separately when occurrences are combined.
func callExtractable(g *dfg.Graph, nodes []int, safe callSafeCache) bool {
	if containsTerminator(g, nodes) {
		return false
	}
	if !safe.get(g.Block.Fn) {
		return false
	}
	for _, n := range nodes {
		if !arm.Abstractable(&g.Block.Instrs[n]) {
			return false
		}
	}
	return true
}

// crossJumpExtractable reports whether one embedding can be tail-merged:
// it must include the block terminator and be schedulable as a suffix
// (no dependence from the fragment to a surviving instruction).
func crossJumpExtractable(g *dfg.Graph, nodes []int) bool {
	if !containsTerminator(g, nodes) {
		return false
	}
	inFrag := make(map[int]bool, len(nodes))
	for _, n := range nodes {
		inFrag[n] = true
	}
	for _, n := range nodes {
		for _, s := range g.Succs(n) {
			if !inFrag[s] {
				return false
			}
		}
		// A fragment instruction that reads pc or writes pc other than
		// the terminator cannot exist mid-block by construction.
	}
	return true
}

// convexScratch is occurrence validation's working memory: the
// signature buffer and the schedulability probes' epoch-stamped node
// marks (no clearing between checks), walk stack and contractOK window
// tables. It is reused across checks and across one walk's
// buildCandidate calls.
type convexScratch struct {
	mark  []uint32 // == epoch: in the fragment; == epoch+1: visited
	epoch uint32
	stack []int
	comp  []int32      // contractOK: owning fragment by window node, -1 external
	indeg []int32      // contractOK: in-degree by contracted vertex
	ref   []byte       // setReference: the signature occurrences must match
	sig   []byte       // sameSignature's encoding buffer
	dfs   []int        // scratchOcc: DFS-order nodes
	nodes []int        // scratchOcc: sorted nodes
	occs  []Occurrence // buildCandidate: the occurrences kept so far
}

// setReference encodes occ's InducedSignature as the one sameSignature
// compares against.
func (sc *convexScratch) setReference(occ *Occurrence) {
	sc.ref = occ.appendInducedSignature(sc.ref[:0])
}

// sameSignature reports whether occ's InducedSignature equals the
// reference, encoding it into reused scratch instead of a new string.
func (sc *convexScratch) sameSignature(occ *Occurrence) bool {
	sc.sig = occ.appendInducedSignature(sc.sig[:0])
	return bytes.Equal(sc.sig, sc.ref)
}

// scratchOcc returns the occurrence of embedding row ns (node ids in
// DFS order) in g, with its node lists in sc's scratch: valid until the
// next scratchOcc call. ownedOcc makes a copy that owns them.
func (sc *convexScratch) scratchOcc(g *dfg.Graph, ns []int32) Occurrence {
	sc.dfs, sc.nodes = sc.dfs[:0], sc.nodes[:0]
	for _, v := range ns {
		sc.dfs = append(sc.dfs, int(v))
	}
	sc.nodes = append(sc.nodes, sc.dfs...)
	slices.Sort(sc.nodes)
	return Occurrence{Block: g.Block, Graph: g, Nodes: sc.nodes, DFS: sc.dfs}
}

// ownedOcc returns occ with its node lists copied into one new array.
func ownedOcc(occ Occurrence) Occurrence {
	k := len(occ.DFS)
	buf := make([]int, 2*k)
	copy(buf, occ.DFS)
	copy(buf[k:], occ.Nodes)
	occ.DFS, occ.Nodes = buf[:k:k], buf[k:]
	return occ
}

// admit is buildCandidate's schedulability check for one more occurrence
// of a fragment. blFrags holds the occurrences already admitted per
// block. A block's first occurrence takes the cheap convexity check; a
// later one must keep the block's simultaneous contraction of all its
// occurrences acyclic (contractOK). On success the occurrence joins its
// block's entry.
func (sc *convexScratch) admit(blFrags map[*cfg.Block][][]int, occ *Occurrence) bool {
	prev, ok := blFrags[occ.Block]
	if !ok {
		if !sc.convexOK(occ.Graph, occ.Nodes) {
			return false
		}
		blFrags[occ.Block] = [][]int{occ.Nodes}
		return true
	}
	trial := append(prev[:len(prev):len(prev)], occ.Nodes)
	if !sc.contractOK(occ.Graph, trial) {
		return false
	}
	blFrags[occ.Block] = trial
	return true
}

// contractOK reports whether contracting each fragment in frags into one
// pseudo-node keeps the block's dependence graph acyclic — exactly the
// ok of ScheduleContracted, which the rewrite itself uses, without
// building the schedule. Edges run from lower to higher index, so every
// external node on a cycle through the contraction lies strictly between
// lo and hi, the lowest and highest fragment nodes: the check is a Kahn
// count over the contracted window [lo, hi], with multi-edges counted
// rather than deduplicated, in reused scratch — no maps, no heap.
func (sc *convexScratch) contractOK(g *dfg.Graph, frags [][]int) bool {
	lo, hi := g.N(), -1
	for _, f := range frags {
		for _, v := range f {
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	if hi < 0 {
		return true
	}
	// Contracted vertices: window node v is v-lo while external;
	// fragment fi is span+fi. A node listed in several fragments belongs
	// to the last, as in ScheduleContracted.
	span := hi - lo + 1
	sc.comp = resizeInt32(sc.comp, span)
	for i := range sc.comp {
		sc.comp[i] = -1
	}
	for fi, f := range frags {
		for _, v := range f {
			sc.comp[v-lo] = int32(fi)
		}
	}
	vert := func(v int) int {
		if c := sc.comp[v-lo]; c >= 0 {
			return span + int(c)
		}
		return v - lo
	}
	sc.indeg = resizeInt32(sc.indeg, span+len(frags))
	clear(sc.indeg)
	for v := lo; v <= hi; v++ {
		a := vert(v)
		for _, s := range g.Succs(v) {
			if s <= hi {
				if b := vert(s); b != a {
					sc.indeg[b]++
				}
			}
		}
	}
	total := 0
	sc.stack = sc.stack[:0]
	for x, d := range sc.indeg {
		if x < span && sc.comp[x] >= 0 {
			continue // a fragment member, not a vertex of its own
		}
		total++
		if d == 0 {
			sc.stack = append(sc.stack, x)
		}
	}
	// release drops the out-edges of window node v, contracted to a.
	release := func(v, a int) {
		for _, s := range g.Succs(v) {
			if s <= hi {
				if b := vert(s); b != a {
					if sc.indeg[b]--; sc.indeg[b] == 0 {
						sc.stack = append(sc.stack, b)
					}
				}
			}
		}
	}
	emitted := 0
	for len(sc.stack) > 0 {
		x := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		emitted++
		if x < span {
			release(lo+x, x)
			continue
		}
		for v := lo; v <= hi; v++ { // the fragment's members
			if sc.comp[v-lo] == int32(x-span) {
				release(v, x)
			}
		}
	}
	return emitted == total
}

func resizeInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// convexOK is the fast single-fragment convexity check (paper Fig. 9):
// contracting nodes into one call must not create a cycle, i.e. no path
// may leave the fragment and re-enter it. Cheaper than contractOK; used
// for the common one-occurrence-per-block case.
func (sc *convexScratch) convexOK(g *dfg.Graph, nodes []int) bool {
	if n := g.N(); len(sc.mark) < n {
		sc.mark = make([]uint32, n)
		sc.epoch = 0
	}
	if sc.epoch >= ^uint32(0)-2 {
		clear(sc.mark)
		sc.epoch = 0
	}
	sc.epoch += 2
	inFrag, visited := sc.epoch, sc.epoch+1
	hi := 0
	for _, v := range nodes {
		sc.mark[v] = inFrag
		hi = max(hi, v)
	}
	// DFS from every external successor of the fragment, walking only
	// external nodes; reaching a node with an edge back into the fragment
	// means a cycle. Edges run from lower to higher index, so nothing
	// above the fragment's last node can lead back into it: the walk
	// stays below hi.
	sc.stack = sc.stack[:0]
	for _, v := range nodes {
		for _, s := range g.Succs(v) {
			if s < hi && sc.mark[s] != inFrag && sc.mark[s] != visited {
				sc.mark[s] = visited
				sc.stack = append(sc.stack, s)
			}
		}
	}
	for len(sc.stack) > 0 {
		v := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		for _, s := range g.Succs(v) {
			if sc.mark[s] == inFrag {
				return false
			}
			if s < hi && sc.mark[s] != visited {
				sc.mark[s] = visited
				sc.stack = append(sc.stack, s)
			}
		}
	}
	return true
}
