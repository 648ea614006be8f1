package mining

import (
	"math/bits"
	"sort"
)

// This file is the flat embedding core. The lattice walk's unit of work
// is "all embeddings of one pattern", and every embedding of a pattern
// has exactly the same shape: k mapped nodes and e mapped edges. EmbSet
// exploits that: instead of one heap object (plus two slices) per
// embedding, a whole level of the lattice lives in three pointer-free
// slabs — graph IDs, node/edge tuples, and per-embedding node bitsets.
// The GC never scans the slab interiors, an embedding is just an index,
// and the per-candidate work of the walk (child materialisation,
// deduplication, overlap tests) runs without allocating.

// EmbSet is a struct-of-arrays set of same-shape embeddings: embedding i
// is the {GID(i), i} record whose row lives at tup[i*(k+e) : (i+1)*(k+e)]
// — k graph-node ids (by DFS index) followed by e graph-edge ids (by code
// tuple index).
type EmbSet struct {
	k, e int     // nodes and edges per embedding
	n    int     // number of embeddings
	gids []int32 // owning graph per embedding
	tup  []int32 // n rows of k node ids then e edge ids

	// Per-embedding node bitsets, built lazily by ensureBits (only
	// patterns that reach an independent-set computation need them): w
	// 64-bit words per embedding, sized by the highest node id present.
	// An EmbSet is owned by one goroutine at a time, so the lazy build
	// needs no locking.
	w    int
	bits []uint64

	// closed marks the rows Config.RowClosed closed, by row; empty when
	// the walk has no predicate.
	closed []bool
}

// Len returns the number of embeddings.
func (s *EmbSet) Len() int { return s.n }

// K returns the node count per embedding, E the edge count.
func (s *EmbSet) K() int { return s.k }
func (s *EmbSet) E() int { return s.e }

func (s *EmbSet) stride() int { return s.k + s.e }

// GID returns the graph owning embedding i.
func (s *EmbSet) GID(i int) int { return int(s.gids[i]) }

// Nodes returns embedding i's graph nodes by DFS index. The slice
// aliases the slab; callers must not mutate it.
func (s *EmbSet) Nodes(i int) []int32 {
	st := s.stride()
	return s.tup[i*st : i*st+s.k : i*st+s.k]
}

// Edges returns embedding i's graph edges by code tuple index, aliasing
// the slab.
func (s *EmbSet) Edges(i int) []int32 {
	st := s.stride()
	return s.tup[i*st+s.k : (i+1)*st : (i+1)*st]
}

// row returns embedding i's full node+edge tuple.
func (s *EmbSet) row(i int) []int32 {
	st := s.stride()
	return s.tup[i*st : (i+1)*st]
}

// ensureBits builds the per-embedding node bitsets on first use (w is
// 0 until then), reusing the bits slab's capacity. The word count is
// sized by the highest node id actually present, not the owning graphs'
// node counts, so the set needs no graph knowledge.
func (s *EmbSet) ensureBits() {
	if s.w != 0 || s.n == 0 {
		return
	}
	maxN := int32(0)
	st := s.stride()
	for i := 0; i < s.n; i++ {
		for _, v := range s.tup[i*st : i*st+s.k] {
			if v > maxN {
				maxN = v
			}
		}
	}
	s.w = (int(maxN) + 64) / 64
	if need := s.n * s.w; cap(s.bits) < need {
		s.bits = make([]uint64, need)
	} else {
		s.bits = s.bits[:need]
		clear(s.bits)
	}
	for i := 0; i < s.n; i++ {
		b := s.bits[i*s.w : (i+1)*s.w]
		for _, v := range s.tup[i*st : i*st+s.k] {
			b[v/64] |= 1 << (v % 64)
		}
	}
}

// Closed reports whether embedding i is closed: Config.RowClosed holds
// for its nodes or for an ancestor row's. Always false in a walk without
// the predicate.
func (s *EmbSet) Closed(i int) bool { return i < len(s.closed) && s.closed[i] }

// nodeBits returns embedding i's node bitset (ensureBits must have run).
func (s *EmbSet) nodeBits(i int) []uint64 { return s.bits[i*s.w : (i+1)*s.w] }

// Overlaps reports whether embeddings i and j share a graph node: same
// graph and a non-empty word-wise AND of their node bitsets. It
// allocates nothing once the bitsets exist.
func (s *EmbSet) Overlaps(i, j int) bool {
	if s.gids[i] != s.gids[j] {
		return false
	}
	s.ensureBits()
	a, b := s.nodeBits(i), s.nodeBits(j)
	for w := range a {
		if a[w]&b[w] != 0 {
			return true
		}
	}
	return false
}

// hashRow is the 64-bit dedupe key of embedding row data: an FNV-style
// multiply-xor over the graph ID and tuple. Collisions are verified by
// the callers (hash equality never decides identity alone), so the hash
// only affects speed, never output.
func hashRow(gid int32, row []int32) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037) ^ uint64(uint32(gid))
	h *= prime
	for _, v := range row {
		h ^= uint64(uint32(v))
		h *= prime
	}
	return h
}

// hashWords is hashRow over bitset words (node-set identity).
func hashWords(ws []uint64) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range ws {
		h ^= v
		h *= prime
	}
	return h
}

// rowIndex is an open-addressing hash index over the entries one dedupe
// pass keeps, reused across passes: reset costs O(entries of this pass),
// not the high-water capacity clearing a reused Go map would cost. Hash
// equality never decides identity — add verifies hash-equal entries
// through the caller's exact comparison.
type rowIndex struct {
	slot  []int32  // linear-probing table: entry+1, 0 = empty
	hash  []uint64 // hash by entry
	shift uint     // 64 - log2(len(slot)): slots are taken from the high bits
}

// reset sizes the index for up to n entries and empties it.
func (x *rowIndex) reset(n int) {
	size, lg := 8, uint(3)
	for size < 2*n {
		size, lg = size<<1, lg+1
	}
	if cap(x.slot) < size {
		x.slot = make([]int32, size)
	} else {
		x.slot = x.slot[:size]
		clear(x.slot)
	}
	if cap(x.hash) < n {
		x.hash = make([]uint64, n)
	}
	x.hash = x.hash[:n]
	x.shift = 64 - lg
}

// add reports whether an entry equal to the candidate with hash h is
// already kept (same reports exact identity with hash-equal entry j);
// otherwise it records the candidate as entry next and returns false.
// FNV-style hashes mix into their high bits, so probing starts there.
func (x *rowIndex) add(h uint64, next int32, same func(j int32) bool) bool {
	mask := uint64(len(x.slot) - 1)
	for i := h >> x.shift; ; i = (i + 1) & mask {
		s := x.slot[i]
		if s == 0 {
			x.slot[i] = next + 1
			x.hash[next] = h
			return false
		}
		if j := s - 1; x.hash[j] == h && same(j) {
			return true
		}
	}
}

// embBuilder accumulates same-shape embeddings into an EmbSet.
type embBuilder struct {
	set EmbSet
}

func newEmbBuilder(k, e, capHint int) *embBuilder {
	b := &embBuilder{set: EmbSet{k: k, e: e}}
	if capHint > 0 {
		b.set.gids = make([]int32, 0, capHint)
		b.set.tup = make([]int32, 0, capHint*(k+e))
	}
	return b
}

// add appends one embedding.
func (b *embBuilder) add(gid int32, nodes, edges []int32) {
	b.set.gids = append(b.set.gids, gid)
	b.set.tup = append(b.set.tup, nodes...)
	b.set.tup = append(b.set.tup, edges...)
	b.set.n++
}

func (b *embBuilder) reset() {
	b.set.gids = b.set.gids[:0]
	b.set.tup = b.set.tup[:0]
	b.set.n = 0
}

func (b *embBuilder) done() *EmbSet {
	s := b.set
	return &s
}

// Embedding is the boxed view of one EmbSet row: the pre-slab
// representation, kept as a construction and inspection convenience for
// tests and external callers. The mining inner loop never creates these.
type Embedding struct {
	GID   int
	Nodes []int
	Edges []int
}

// Emb materialises embedding i as a boxed view (allocates; debugging and
// tests only).
func (s *EmbSet) Emb(i int) Embedding {
	e := Embedding{GID: s.GID(i)}
	e.Nodes = make([]int, s.k)
	for j, v := range s.Nodes(i) {
		e.Nodes[j] = int(v)
	}
	e.Edges = make([]int, s.e)
	for j, v := range s.Edges(i) {
		e.Edges[j] = int(v)
	}
	return e
}

// NodeSet returns the sorted set of graph nodes covered.
func (e *Embedding) NodeSet() []int {
	out := append([]int(nil), e.Nodes...)
	sort.Ints(out)
	return out
}

// Overlaps reports whether two boxed embeddings share a node.
func (e *Embedding) Overlaps(o *Embedding) bool {
	if e.GID != o.GID {
		return false
	}
	for _, a := range e.Nodes {
		for _, b := range o.Nodes {
			if a == b {
				return true
			}
		}
	}
	return false
}

// NewEmbSet packs boxed embeddings into a slab. Ragged node counts are
// tolerated (shorter rows are padded by repeating their last node, which
// leaves the node set — all the independent-set machinery reads —
// unchanged); edge lists must agree in length.
func NewEmbSet(embs []*Embedding) *EmbSet {
	if len(embs) == 0 {
		return &EmbSet{}
	}
	k, e := 0, len(embs[0].Edges)
	for _, emb := range embs {
		if len(emb.Nodes) > k {
			k = len(emb.Nodes)
		}
	}
	b := newEmbBuilder(k, e, len(embs))
	for _, emb := range embs {
		b.set.gids = append(b.set.gids, int32(emb.GID))
		for _, n := range emb.Nodes {
			b.set.tup = append(b.set.tup, int32(n))
		}
		for j := len(emb.Nodes); j < k; j++ {
			b.set.tup = append(b.set.tup, int32(emb.Nodes[len(emb.Nodes)-1]))
		}
		for _, d := range emb.Edges {
			b.set.tup = append(b.set.tup, int32(d))
		}
		b.set.n++
	}
	return b.done()
}

// popcount of a word span (used by the MIS solver's bounds).
func onesCount(ws []uint64) int {
	n := 0
	for _, w := range ws {
		n += bits.OnesCount64(w)
	}
	return n
}
