package mining

import (
	"encoding/binary"
	"fmt"
)

// This file is the wire codec of the distributed speculation protocol:
// the coordinator ships its mining graphs and a portable slice of the
// search configuration to shard workers, and each worker streams back
// the specNode tree its speculation phase recorded for one seed. The
// encoding follows the internal/link idiom — versioned magic prefix,
// little-endian, fully validated decode — but uses varints and a
// per-message string table instead of fixed-width words: the payload is
// dominated by embedding slabs of small non-negative integers and by
// heavily repeated instruction-text labels, so the variable-width form
// is several times smaller on the wire.
//
// Trust model: shards are same-code replicas inside one deployment, so
// decoding validates structure (bounds, lengths, internal consistency —
// corrupt bytes produce an error, never a panic or an out-of-range
// index) but does not re-verify semantics such as minimality or support
// counts; those are pure functions both ends compute with the same
// code. A semantically wrong subtree from a buggy or mismatched shard
// is caught the same way any wrong speculation is: the authoritative
// replay re-checks every state-dependent decision, and the differential
// tests pin coordinator output against the single-process walk.

// Wire magics, one per payload kind, versioned in the last byte.
const (
	wireMagicGraphs = "GPsG1"
	wireMagicWalk   = "GPsW1"
	wireMagicTree   = "GPsT2"
)

// wireEnc is the varint writer. Strings are interned on first use: a
// new string is written as tag 0 + length + bytes, a repeat as its
// table index + 1. Both sides build the table in stream order, so the
// encoding is deterministic and self-contained.
type wireEnc struct {
	b    []byte
	strs map[string]uint64
}

func newWireEnc(magic string) *wireEnc {
	return &wireEnc{b: append(make([]byte, 0, 1024), magic...), strs: map[string]uint64{}}
}

func (w *wireEnc) uv(v uint64)  { w.b = binary.AppendUvarint(w.b, v) }
func (w *wireEnc) iv(v int64)   { w.b = binary.AppendVarint(w.b, v) }
func (w *wireEnc) byte(v byte)  { w.b = append(w.b, v) }
func (w *wireEnc) raw(p []byte) { w.b = append(w.b, p...) }

func (w *wireEnc) str(s string) {
	if id, ok := w.strs[s]; ok {
		w.uv(id + 1)
		return
	}
	w.strs[s] = uint64(len(w.strs))
	w.uv(0)
	w.uv(uint64(len(s)))
	w.b = append(w.b, s...)
}

// wireDec is the sticky-error reader: after the first failure every
// accessor returns zero values and the error survives to the caller, so
// decode loops need no per-field checks to stay in bounds.
type wireDec struct {
	b    []byte
	pos  int
	strs []string
	err  error
}

func newWireDec(data []byte, magic string) *wireDec {
	d := &wireDec{b: data}
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		d.err = fmt.Errorf("mining: bad %s wire prefix", magic)
		return d
	}
	d.pos = len(magic)
	return d
}

func (d *wireDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("mining: "+format, args...)
	}
}

func (d *wireDec) uv() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		d.fail("truncated varint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *wireDec) iv() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.pos:])
	if n <= 0 {
		d.fail("truncated varint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *wireDec) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.b) {
		d.fail("truncated byte at offset %d", d.pos)
		return 0
	}
	v := d.b[d.pos]
	d.pos++
	return v
}

// length reads an element count that the remaining bytes must be able
// to hold at perElem bytes minimum each — the allocation guard that
// keeps corrupt counts from provoking huge make()s.
func (d *wireDec) length(perElem int) int {
	v := d.uv()
	if d.err == nil && v > uint64((len(d.b)-d.pos)/perElem+1) {
		d.fail("implausible count %d at offset %d", v, d.pos)
		return 0
	}
	return int(v)
}

func (d *wireDec) str() string {
	tag := d.uv()
	if d.err != nil {
		return ""
	}
	if tag > 0 {
		idx := tag - 1
		if idx >= uint64(len(d.strs)) {
			d.fail("string table index %d out of range", idx)
			return ""
		}
		return d.strs[idx]
	}
	n := d.length(1)
	if d.err != nil {
		return ""
	}
	if d.pos+n > len(d.b) {
		d.fail("truncated string at offset %d", d.pos)
		return ""
	}
	s := string(d.b[d.pos : d.pos+n])
	d.pos += n
	d.strs = append(d.strs, s)
	return s
}

// finish rejects trailing garbage.
func (d *wireDec) finish() error {
	if d.err == nil && d.pos != len(d.b) {
		d.fail("%d trailing bytes", len(d.b)-d.pos)
	}
	return d.err
}

// EncodeGraphs serialises the miner's input graphs for shipping to a
// shard worker. The encoding is deterministic (graphs, labels and edges
// in their given order), so identical inputs produce identical bytes;
// decode on the shard rebuilds graphs whose seedPatterns output matches
// the coordinator's exactly — the basis of the consistent seed
// assignment.
func EncodeGraphs(gs []*Graph) []byte {
	w := newWireEnc(wireMagicGraphs)
	w.uv(uint64(len(gs)))
	for _, g := range gs {
		w.iv(int64(g.ID))
		w.uv(uint64(len(g.Labels)))
		for _, l := range g.Labels {
			w.str(l)
		}
		w.uv(uint64(len(g.Edges)))
		for _, e := range g.Edges {
			w.uv(uint64(e.From))
			w.uv(uint64(e.To))
			w.str(e.Label)
		}
	}
	return w.b
}

// DecodeGraphs rebuilds (and freezes) an EncodeGraphs payload.
func DecodeGraphs(data []byte) ([]*Graph, error) {
	d := newWireDec(data, wireMagicGraphs)
	gs, err := decodeGraphsBody(d)
	if err != nil {
		return nil, err
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return gs, nil
}

func decodeGraphsBody(d *wireDec) ([]*Graph, error) {
	n := d.length(3)
	gs := make([]*Graph, 0, n)
	seen := map[int]bool{}
	for i := 0; i < n && d.err == nil; i++ {
		g := &Graph{ID: int(d.iv())}
		if seen[g.ID] {
			d.fail("duplicate graph ID %d", g.ID)
			break
		}
		seen[g.ID] = true
		nn := d.length(1)
		g.Labels = make([]string, 0, nn)
		for j := 0; j < nn && d.err == nil; j++ {
			g.Labels = append(g.Labels, d.str())
		}
		ne := d.length(3)
		g.Edges = make([]GEdge, 0, ne)
		for j := 0; j < ne && d.err == nil; j++ {
			e := GEdge{From: int(d.uv()), To: int(d.uv()), Label: d.str()}
			if d.err == nil && (e.From >= nn || e.To >= nn) {
				d.fail("graph %d edge %d endpoints (%d,%d) out of range [0,%d)", g.ID, j, e.From, e.To, nn)
				break
			}
			g.Edges = append(g.Edges, e)
		}
		if d.err == nil {
			g.Freeze()
			gs = append(gs, g)
		}
	}
	return gs, d.err
}

// SpecConfig is the portable slice of a Config a shard worker needs to
// run the speculation phase of one walk: the state-independent search
// parameters plus the advisory pruning inputs (UB table and incumbent
// floor). It carries no closures: every decision a shard makes is a
// pure function of these fields and the shipped graphs.
type SpecConfig struct {
	MinSupport       int
	MaxNodes         int
	MISExactLimit    int
	MaxPatterns      int // session-wide speculative visit budget (0 = unlimited)
	EmbeddingSupport bool
	GreedyMIS        bool
	Lexicographic    bool
	// Floor is the initial advisory incumbent benefit; gossip pushes may
	// raise it later (SpecSession.SetFloor).
	Floor int
	// UB[m] bounds the benefit of any pattern (and its whole subtree)
	// whose advisory occurrence count is m; indexes past the table never
	// prune. The coordinator ships its own precomputed bound row, so
	// both ends prune against identical numbers.
	UB []int
}

// EncodeShardWalk frames one walk-open request: the SpecConfig followed
// by a pre-encoded EncodeGraphs payload (passed encoded so the per-walk
// cost excludes re-serialising the graphs).
func EncodeShardWalk(sc SpecConfig, graphsEnc []byte) []byte {
	w := newWireEnc(wireMagicWalk)
	w.uv(uint64(sc.MinSupport))
	w.uv(uint64(sc.MaxNodes))
	w.uv(uint64(sc.MISExactLimit))
	w.uv(uint64(sc.MaxPatterns))
	var flags byte
	if sc.EmbeddingSupport {
		flags |= 1
	}
	if sc.GreedyMIS {
		flags |= 2
	}
	if sc.Lexicographic {
		flags |= 4
	}
	w.byte(flags)
	w.iv(int64(sc.Floor))
	w.uv(uint64(len(sc.UB)))
	for _, v := range sc.UB {
		w.iv(int64(v))
	}
	w.uv(uint64(len(graphsEnc)))
	w.raw(graphsEnc)
	return w.b
}

// DecodeShardWalk parses an EncodeShardWalk payload.
func DecodeShardWalk(data []byte) (SpecConfig, []*Graph, error) {
	d := newWireDec(data, wireMagicWalk)
	var sc SpecConfig
	sc.MinSupport = int(d.uv())
	sc.MaxNodes = int(d.uv())
	sc.MISExactLimit = int(d.uv())
	sc.MaxPatterns = int(d.uv())
	flags := d.byte()
	sc.EmbeddingSupport = flags&1 != 0
	sc.GreedyMIS = flags&2 != 0
	sc.Lexicographic = flags&4 != 0
	sc.Floor = int(d.iv())
	nub := d.length(1)
	sc.UB = make([]int, 0, nub)
	for i := 0; i < nub && d.err == nil; i++ {
		sc.UB = append(sc.UB, int(d.iv()))
	}
	glen := d.length(1)
	if d.err != nil {
		return SpecConfig{}, nil, d.err
	}
	if d.pos+glen != len(d.b) {
		return SpecConfig{}, nil, fmt.Errorf("mining: walk graph section length %d does not cover the remaining %d bytes", glen, len(d.b)-d.pos)
	}
	gs, err := DecodeGraphs(d.b[d.pos:])
	if err != nil {
		return SpecConfig{}, nil, err
	}
	return sc, gs, nil
}

// specExt wire flags.
const (
	extFlagOut = 1 << iota
	extFlagMaterialized
	extFlagDropped
	extFlagMinimal
	extFlagSet
	extFlagChild
)

// specTreeMaxDepth caps decode recursion. Each tree level adds one code
// tuple (one pattern edge), so any real walk is tens deep at most; the
// cap only exists to keep hostile input from exhausting the stack.
const specTreeMaxDepth = 4096

// encodeSpecTree serialises one recorded speculation subtree. The seed
// pattern's code and embeddings are NOT shipped: the coordinator owns
// an identical seed (canonical seed construction over identical
// graphs), passes it to decodeSpecTree, and every descendant's code and
// embedding shape derive from the parent plus the extension tuple.
func encodeSpecTree(root *specNode) []byte {
	w := newWireEnc(wireMagicTree)
	encodeSpecNode(w, root)
	return w.b
}

func encodeSpecNode(w *wireEnc, n *specNode) {
	w.uv(uint64(n.p.Support))
	if n.p.Disjoint == nil {
		w.uv(0)
	} else {
		w.uv(uint64(len(n.p.Disjoint)) + 1)
		for _, v := range n.p.Disjoint {
			w.uv(uint64(v))
		}
	}
	if !n.expanded {
		w.byte(0)
		return
	}
	w.byte(1)
	w.uv(uint64(len(n.exts)))
	for i := range n.exts {
		se := &n.exts[i]
		w.uv(uint64(se.t.I))
		w.uv(uint64(se.t.J))
		w.str(se.t.LI)
		w.str(se.t.LJ)
		w.str(se.t.LE)
		var flags byte
		if se.t.Out {
			flags |= extFlagOut
		}
		if se.materialized {
			flags |= extFlagMaterialized
		}
		if se.dropped {
			flags |= extFlagDropped
		}
		if se.minimal {
			flags |= extFlagMinimal
		}
		if se.set != nil {
			flags |= extFlagSet
		}
		if se.child != nil {
			flags |= extFlagChild
		}
		w.byte(flags)
		w.uv(uint64(se.rawCount))
		if se.set != nil {
			w.iv(int64(se.bound))
			w.uv(uint64(se.set.n))
			for _, g := range se.set.gids {
				w.iv(int64(g))
			}
			for _, v := range se.set.tup {
				w.uv(uint64(v))
			}
		}
		if se.child != nil {
			encodeSpecNode(w, se.child)
		}
	}
}

// decodeSpecTree rebuilds a shard-recorded subtree around the
// coordinator's own seed pattern. graphOf validates embedding rows
// against the real graphs (graph IDs, node and edge indexes), so a
// corrupt payload fails here instead of during replay.
func decodeSpecTree(data []byte, seedCode Code, seedSet *EmbSet, graphOf func(int) *Graph) (*specNode, error) {
	d := newWireDec(data, wireMagicTree)
	root := decodeSpecNode(d, seedCode, seedSet, graphOf, 0)
	if err := d.finish(); err != nil {
		return nil, err
	}
	return root, nil
}

func decodeSpecNode(d *wireDec, code Code, set *EmbSet, graphOf func(int) *Graph, depth int) *specNode {
	if depth > specTreeMaxDepth {
		d.fail("spec tree deeper than %d", specTreeMaxDepth)
		return nil
	}
	support := int(d.uv())
	if d.err == nil && support > set.Len() {
		d.fail("support %d exceeds %d embeddings", support, set.Len())
		return nil
	}
	dl := d.uv()
	var disjoint []int32
	if dl > 0 {
		m := int(dl - 1)
		if m > set.Len() {
			d.fail("disjoint set of %d over %d embeddings", m, set.Len())
			return nil
		}
		disjoint = make([]int32, 0, m)
		for i := 0; i < m && d.err == nil; i++ {
			v := d.uv()
			if d.err == nil && v >= uint64(set.Len()) {
				d.fail("disjoint row %d out of range [0,%d)", v, set.Len())
				return nil
			}
			disjoint = append(disjoint, int32(v))
		}
	}
	p := &Pattern{Code: code, Labels: code.NodeLabels(), Embeddings: set, Support: support, Disjoint: disjoint}
	n := &specNode{p: p}
	if d.byte() == 0 || d.err != nil {
		return n
	}
	n.expanded = true
	numNodes := code.NumNodes()
	ne := d.length(5)
	n.exts = make([]specExt, 0, ne)
	for i := 0; i < ne && d.err == nil; i++ {
		var se specExt
		se.t = Tuple{I: int(d.uv()), J: int(d.uv()), LI: d.str(), LJ: d.str(), LE: d.str()}
		flags := d.byte()
		se.t.Out = flags&extFlagOut != 0
		se.materialized = flags&extFlagMaterialized != 0
		se.dropped = flags&extFlagDropped != 0
		se.minimal = flags&extFlagMinimal != 0
		if d.err != nil {
			break
		}
		// Rightmost-extension shape: a forward tuple maps exactly one new
		// node (J == numNodes), a backward tuple stays inside the pattern.
		fwd := se.t.Forward()
		if fwd && (se.t.J != numNodes || se.t.I >= numNodes) ||
			!fwd && (se.t.I >= numNodes || se.t.J >= numNodes || se.t.I == se.t.J) {
			d.fail("extension tuple (%d,%d) malformed for a %d-node pattern", se.t.I, se.t.J, numNodes)
			break
		}
		se.rawCount = int(d.uv())
		hasSet := flags&extFlagSet != 0
		hasChild := flags&extFlagChild != 0
		if hasSet && (!se.materialized || se.dropped) {
			d.fail("extension %v carries a set without a materialised state", se.t)
			break
		}
		if hasChild && (!hasSet || !se.minimal) {
			d.fail("extension %v carries a child without a minimal materialised set", se.t)
			break
		}
		if hasSet {
			se.bound = int(d.iv())
			ck, ce := set.K(), set.E()+1
			if fwd {
				ck++
			}
			cn := d.length(ck + ce + 1)
			cset := &EmbSet{k: ck, e: ce, n: cn,
				gids: make([]int32, 0, cn), tup: make([]int32, 0, cn*(ck+ce))}
			for j := 0; j < cn && d.err == nil; j++ {
				cset.gids = append(cset.gids, int32(d.iv()))
			}
			for j := 0; j < cn && d.err == nil; j++ {
				g := graphOf(int(cset.gids[j]))
				if g == nil {
					d.fail("embedding references unknown graph %d", cset.gids[j])
					break
				}
				for x := 0; x < ck; x++ {
					v := d.uv()
					if d.err == nil && v >= uint64(g.NumNodes()) {
						d.fail("embedding node %d out of range [0,%d) in graph %d", v, g.NumNodes(), g.ID)
					}
					cset.tup = append(cset.tup, int32(v))
				}
				for x := 0; x < ce; x++ {
					v := d.uv()
					if d.err == nil && v >= uint64(len(g.Edges)) {
						d.fail("embedding edge %d out of range [0,%d) in graph %d", v, len(g.Edges), g.ID)
					}
					cset.tup = append(cset.tup, int32(v))
				}
			}
			se.set = cset
		}
		if hasChild && d.err == nil {
			childCode := append(append(Code{}, code...), se.t)
			se.child = decodeSpecNode(d, childCode, se.set, graphOf, depth+1)
		}
		n.exts = append(n.exts, se)
	}
	if d.err != nil {
		return nil
	}
	return n
}
