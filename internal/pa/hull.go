package pa

import (
	"math/bits"

	"graphpa/internal/arm"
	"graphpa/internal/dfg"
)

// This file is the walk's prune of unextractable fragments (the paper's
// "PA-specific pruning of unextractable — cycle-inducing — fragments").
// A row's hull is its nodes plus every block node on a dependence path
// between two of them. An occurrence can be outlined only if it is
// convex — its hull is its own node set, else contracting it makes a
// cycle (convexScratch.admit) — its instructions are abstractable and
// its function is CallSafe (callExtractable). A row is closed when its
// hull has more than MaxNodes nodes, holds a non-abstractable
// instruction, or its function is not CallSafe. Adding nodes only grows
// the hull and the walk never grows a pattern past MaxNodes, so every
// descendant of a closed row is closed too, and no occurrence built on
// it passes those checks. The walk keeps one closed bit per embedding row and skips a
// pattern with no open row, whole subtree included
// (mining.Config.RowClosed). The cut depends on no threshold, so the
// final incumbent of a complete walk is unchanged (DESIGN.md §10).

// hullTable is one block's dependence reachability, over DFG edges (the
// mining graph drops the edges of non-abstractable instructions, whose
// paths still constrain the schedule): w words per node row.
type hullTable struct {
	w       int
	reach   []uint64 // reach[v*w:(v+1)*w]: the nodes v reaches, v included
	coreach []uint64 // coreach[v*w:(v+1)*w]: the nodes reaching v, v included
	dead    []uint64 // the non-abstractable instructions
}

func newHullTable(g *dfg.Graph) *hullTable {
	n := g.N()
	w := (n + 63) / 64
	t := &hullTable{w: w, reach: make([]uint64, n*w), coreach: make([]uint64, n*w), dead: make([]uint64, w)}
	// Edges run from lower to higher index: a node reaches only nodes at
	// or above it, so each union skips the words below the lower end.
	for v := n - 1; v >= 0; v-- {
		r := t.reach[v*w : (v+1)*w]
		r[v/64] |= 1 << (v % 64)
		for _, s := range g.Succs(v) {
			orWords(r[s/64:], t.reach[s*w+s/64:(s+1)*w])
		}
	}
	for v := 0; v < n; v++ {
		c := t.coreach[v*w : (v+1)*w]
		c[v/64] |= 1 << (v % 64)
		for _, p := range g.Preds(v) {
			orWords(c[:p/64+1], t.coreach[p*w:p*w+p/64+1])
		}
		if !arm.Abstractable(&g.Block.Instrs[v]) {
			t.dead[v/64] |= 1 << (v % 64)
		}
	}
	return t
}

func orWords(dst, src []uint64) {
	for i, x := range src {
		dst[i] |= x
	}
}

// hulls is one round's row predicate (mining.Config.RowClosed). Tables
// are built on a block's first query and kept for the round.
type hulls struct {
	maxK    int
	graphs  []*dfg.Graph // by block ID
	safe    callSafeCache
	tabs    []*hullTable // by block ID
	acc, co []uint64     // closed's reach and co-reach unions
}

func newHulls(graphs []*dfg.Graph, safe callSafeCache, maxK int) *hulls {
	n := 0
	for _, g := range graphs {
		n = max(n, g.Block.ID+1)
	}
	h := &hulls{maxK: maxK, graphs: make([]*dfg.Graph, n), safe: safe, tabs: make([]*hullTable, n)}
	for _, g := range graphs {
		h.graphs[g.Block.ID] = g
	}
	return h
}

// closed reports whether the row nodes of block gid is closed. The hull
// is the union of the nodes' reach rows intersected with the union of
// their co-reach rows; both lie inside the row's index window, so only
// its words are read.
func (h *hulls) closed(gid int, nodes []int32) bool {
	g := h.graphs[gid]
	if !h.safe.get(g.Block.Fn) {
		return true
	}
	t := h.tabs[gid]
	if t == nil {
		t = newHullTable(g)
		h.tabs[gid] = t
	}
	lo, hi := nodes[0], nodes[0]
	for _, v := range nodes[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	w0, w1 := int(lo)/64, int(hi)/64+1
	if cap(h.acc) < t.w {
		h.acc, h.co = make([]uint64, t.w), make([]uint64, t.w)
	}
	acc, co := h.acc[:w1-w0], h.co[:w1-w0]
	clear(acc)
	clear(co)
	for _, v := range nodes {
		r := int(v)*t.w + w0
		orWords(acc, t.reach[r:r+len(acc)])
		orWords(co, t.coreach[r:r+len(co)])
	}
	size := 0
	for i, x := range acc {
		x &= co[i]
		if x&t.dead[w0+i] != 0 {
			return true
		}
		size += bits.OnesCount64(x)
	}
	return size > h.maxK
}
