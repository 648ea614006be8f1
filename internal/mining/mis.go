package mining

import (
	"math/bits"
	"slices"
	"sort"
	"sync"
)

// This file computes maximum sets of non-overlapping embeddings (paper
// §3.4): the nodes of the collision graph are a pattern's embeddings, two
// embeddings collide when they share an instruction, and the largest
// extractable set is a maximum independent set (equivalently a maximum
// clique in the inverted collision graph). We follow the paper's choice of
// an exact colour-bounded branch-and-bound (Kumlander 2004 is a
// colour-class backtracking search of this family) on the inverted graph,
// with a greedy fallback above a size threshold.
//
// The solver runs once per frequent pattern, so everything it touches —
// collision adjacency, per-depth candidate sets, colour orders, dedupe
// tables — lives in a misScratch that is reused across patterns. Overlap
// tests and colour classes are word-wise bitset operations on the EmbSet's
// node bitsets; the search itself allocates nothing.

// bitset is a fixed-capacity bit vector.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) clear(i int)    { b[i/64] &^= 1 << (i % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

// clone and and are the allocating variants, kept for callers that want a
// fresh set; the solver's hot paths use copy and the in-place andInto/
// andNotInto below instead.
func (b bitset) clone() bitset {
	out := make(bitset, len(b))
	copy(out, b)
	return out
}

func (b bitset) and(o bitset) bitset {
	out := make(bitset, len(b))
	andInto(out, b, o)
	return out
}

// andInto stores a & o into dst without allocating.
func andInto(dst, a, o bitset) {
	for i := range dst {
		dst[i] = a[i] & o[i]
	}
}

// andNotInto clears o's bits from b in place (b &^= o).
func andNotInto(b, o bitset) {
	for i := range b {
		b[i] &^= o[i]
	}
}

func (b bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// first returns the lowest set bit, or -1.
func (b bitset) first() int {
	for wi, w := range b {
		if w != 0 {
			return wi*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// last returns the highest set bit, or -1.
func (b bitset) last() int {
	for wi := len(b) - 1; wi >= 0; wi-- {
		if b[wi] != 0 {
			return wi*64 + 63 - bits.LeadingZeros64(b[wi])
		}
	}
	return -1
}

func wordsEqual(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// greedyItem is one embedding in the greedy interval-scheduling order.
type greedyItem struct {
	row        int32
	maxN, minN int32
}

// misScratch is the reusable state of one independent-set computation.
// One instance serves any number of sequential calls; nothing it holds
// outlives a call except through the returned index slice (which is
// always freshly allocated).
type misScratch struct {
	keys  []int64 // (gid<<32 | row) grouping keys
	group []int32 // rows of the gid group being solved
	uniq  []int32 // group after node-set dedupe

	sets rowIndex // node-set dedupe index over uniq

	items []greedyItem

	// Branch-and-bound state: inverted collision adjacency as views into
	// one arena, a candidate set per recursion depth, and flat per-depth
	// colour order/bound arrays (depth d uses [d*n, (d+1)*n)).
	inv      []bitset
	invBuf   bitset
	pstack   bitset
	order    []int32
	bound    []int32
	rbuf     []int32 // current clique
	best     []int32 // incumbent clique
	colRem   bitset
	colAvail bitset

	union bitset // misUpperBound's per-graph node-coverage accumulator
}

// maxCliqueIdx finds a maximum clique in the n-vertex graph given by
// adjacency bitsets of w words each, using greedy-colouring bounds
// (Tomita-style; the same bound family as Kumlander's colour-class
// backtracking). The result aliases sc.best — callers copy it out before
// the scratch is reused. The exploration order is exactly the classic
// recursive formulation's; only the storage is flattened.
func maxCliqueIdx(n, w int, adj []bitset, sc *misScratch) []int32 {
	if cap(sc.pstack) < (n+1)*w {
		sc.pstack = make(bitset, (n+1)*w)
	}
	if cap(sc.order) < n*n {
		sc.order = make([]int32, n*n)
		sc.bound = make([]int32, n*n)
	}
	sc.rbuf = sc.rbuf[:0]
	sc.best = sc.best[:0]
	p0 := sc.pstack[:w]
	clear(p0)
	for i := 0; i < n; i++ {
		p0.set(i)
	}
	var expand func(depth int)
	expand = func(depth int) {
		p := sc.pstack[depth*w : (depth+1)*w]
		if p.empty() {
			if len(sc.rbuf) > len(sc.best) {
				sc.best = append(sc.best[:0], sc.rbuf...)
			}
			return
		}
		order, bound := colourSort(p, adj, n, w, depth, sc)
		for i := len(order) - 1; i >= 0; i-- {
			v := int(order[i])
			if len(sc.rbuf)+int(bound[i]) <= len(sc.best) {
				return
			}
			andInto(sc.pstack[(depth+1)*w:(depth+2)*w], p, adj[v])
			sc.rbuf = append(sc.rbuf, int32(v))
			expand(depth + 1)
			sc.rbuf = sc.rbuf[:len(sc.rbuf)-1]
			p.clear(v)
		}
	}
	expand(0)
	return sc.best
}

// colourSort greedily colours the candidate set and returns the vertices
// ordered by colour class, with bound[i] = colour number of order[i] (an
// upper bound on the clique extension using order[:i+1]). The returned
// slices alias sc's per-depth arrays and stay valid for the whole loop at
// that depth.
func colourSort(p bitset, adj []bitset, n, w, depth int, sc *misScratch) (order, bound []int32) {
	order = sc.order[depth*n : depth*n : depth*n+n]
	bound = sc.bound[depth*n : depth*n : depth*n+n]
	if cap(sc.colRem) < w {
		sc.colRem = make(bitset, w)
		sc.colAvail = make(bitset, w)
	}
	rem := sc.colRem[:w]
	copy(rem, p)
	total := p.count()
	colour := int32(0)
	for len(order) < total {
		colour++
		avail := sc.colAvail[:w]
		copy(avail, rem)
		for {
			v := avail.first()
			if v < 0 {
				break
			}
			order = append(order, int32(v))
			bound = append(bound, colour)
			rem.clear(v)
			avail.clear(v)
			// remove neighbours of v from this colour class
			andNotInto(avail, adj[v])
		}
	}
	return order, bound
}

// misPool backs the exported entry points; the miner's hot path owns a
// misScratch directly.
var misPool = sync.Pool{New: func() any { return new(misScratch) }}

// misUpperBound is a cheap admissible upper bound on the size of a
// maximum set of pairwise non-overlapping embeddings — for s itself and
// for every descendant pattern in s's lattice subtree. Per graph, any
// collection of disjoint k-node embeddings draws k distinct nodes each
// from the union of the group's node sets, so its size is at most
// floor(|union|/k) (and at most the row count); summing per graph bounds
// the whole MIS because embeddings never overlap across graphs.
// Descendants are covered too: each disjoint descendant embedding
// contains the nodes of the distinct parent row it extends, so a
// descendant's MIS is no larger than the parent's. Runs in one pass over
// the rows — no collision graph, no solver.
func misUpperBound(s *EmbSet, sc *misScratch) int {
	if s.Len() == 0 || s.k == 0 {
		return 0
	}
	s.ensureBits()
	keys := sc.keys[:0]
	for i := 0; i < s.n; i++ {
		keys = append(keys, int64(s.gids[i])<<32|int64(uint32(i)))
	}
	slices.Sort(keys)
	sc.keys = keys

	if cap(sc.union) < s.w {
		sc.union = make(bitset, s.w)
	}
	un := sc.union[:s.w]
	total := 0
	for start := 0; start < len(keys); {
		gid := int32(keys[start] >> 32)
		end := start
		clear(un)
		for end < len(keys) && int32(keys[end]>>32) == gid {
			b := s.nodeBits(int(uint32(keys[end])))
			for w := range un {
				un[w] |= b[w]
			}
			end++
		}
		rows := end - start
		if cov := un.count() / s.k; cov < rows {
			total += cov
		} else {
			total += rows
		}
		start = end
	}
	return total
}

// MISUpperBound is the exported wrapper around misUpperBound, for tests
// and external callers.
func MISUpperBound(s *EmbSet) int {
	sc := misPool.Get().(*misScratch)
	out := misUpperBound(s, sc)
	misPool.Put(sc)
	return out
}

// DisjointIndices returns a maximum (or, above the exact-solver size
// limit, greedily maximal) set of pairwise non-overlapping embeddings of
// s, as row indices.
func DisjointIndices(s *EmbSet, cfg Config) []int32 {
	sc := misPool.Get().(*misScratch)
	out := disjointIndices(s, cfg, sc)
	misPool.Put(sc)
	return out
}

// DisjointEmbeddings is the boxed-embedding wrapper around
// DisjointIndices, kept for tests and external callers.
func DisjointEmbeddings(embs []*Embedding, cfg Config) []*Embedding {
	idx := DisjointIndices(NewEmbSet(embs), cfg)
	if len(idx) == 0 {
		return nil
	}
	out := make([]*Embedding, 0, len(idx))
	for _, i := range idx {
		out = append(out, embs[i])
	}
	return out
}

// disjointIndices groups embeddings per graph — overlap is only possible
// within one graph — and solves each group independently, in ascending
// graph-ID order with original embedding order inside a group (the same
// sequence the boxed implementation produced).
func disjointIndices(s *EmbSet, cfg Config, sc *misScratch) []int32 {
	if s.Len() == 0 {
		return nil
	}
	s.ensureBits()
	keys := sc.keys[:0]
	for i := 0; i < s.n; i++ {
		keys = append(keys, int64(s.gids[i])<<32|int64(uint32(i)))
	}
	slices.Sort(keys)
	sc.keys = keys

	var out []int32
	for start := 0; start < len(keys); {
		gid := int32(keys[start] >> 32)
		end := start
		sc.group = sc.group[:0]
		for end < len(keys) && int32(keys[end]>>32) == gid {
			sc.group = append(sc.group, int32(uint32(keys[end])))
			end++
		}
		start = end
		uniq := dedupeGroup(s, sc.group, sc)
		if cfg.GreedyMIS || len(uniq) > cfg.exactLimit() {
			out = greedyIdx(s, uniq, sc, out)
		} else {
			out = exactIdx(s, uniq, sc, out)
		}
	}
	return out
}

// dedupeGroup drops embeddings covering an identical node set
// (automorphic remappings are interchangeable for extraction), keeping
// the first of each. Identity is the node bitset, keyed by 64-bit hash
// with exact word comparison on collision. The result aliases sc.uniq.
func dedupeGroup(s *EmbSet, group []int32, sc *misScratch) []int32 {
	sc.uniq = sc.uniq[:0]
	sc.sets.reset(len(group))
	for _, row := range group {
		b := s.nodeBits(int(row))
		if sc.sets.add(hashWords(b), int32(len(sc.uniq)), func(j int32) bool {
			return wordsEqual(s.nodeBits(int(sc.uniq[j])), b)
		}) {
			continue
		}
		sc.uniq = append(sc.uniq, row)
	}
	return sc.uniq
}

// exactIdx computes a maximum independent set of one group's embeddings
// as a maximum clique in the inverted collision graph, appending the
// chosen rows (ascending) to out.
func exactIdx(s *EmbSet, group []int32, sc *misScratch, out []int32) []int32 {
	n := len(group)
	if n == 1 {
		return append(out, group[0])
	}
	w := (n + 63) / 64
	if cap(sc.invBuf) < n*w {
		sc.invBuf = make(bitset, n*w)
	}
	buf := sc.invBuf[:n*w]
	clear(buf)
	if cap(sc.inv) < n {
		sc.inv = make([]bitset, n)
	}
	inv := sc.inv[:n]
	for i := 0; i < n; i++ {
		inv[i] = buf[i*w : (i+1)*w]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !s.Overlaps(int(group[i]), int(group[j])) {
				inv[i].set(j)
				inv[j].set(i)
			}
		}
	}
	idx := maxCliqueIdx(n, w, inv, sc)
	slices.Sort(idx)
	for _, i := range idx {
		out = append(out, group[i])
	}
	return out
}

// greedyIdx picks one group's embeddings in order of ascending maximum
// node index (interval-scheduling heuristic: blocks are linear, so
// finishing early conflicts least), appending the chosen rows to out.
func greedyIdx(s *EmbSet, group []int32, sc *misScratch, out []int32) []int32 {
	if cap(sc.items) < len(group) {
		sc.items = make([]greedyItem, len(group))
	}
	items := sc.items[:len(group)]
	for i, row := range group {
		b := bitset(s.nodeBits(int(row)))
		items[i] = greedyItem{row: row, minN: int32(b.first()), maxN: int32(b.last())}
	}
	sort.Slice(items, func(a, b int) bool {
		if items[a].maxN != items[b].maxN {
			return items[a].maxN < items[b].maxN
		}
		return items[a].minN < items[b].minN
	})
	base := len(out)
	for _, it := range items {
		ok := true
		for _, chosen := range out[base:] {
			if s.Overlaps(int(it.row), int(chosen)) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, it.row)
		}
	}
	return out
}
