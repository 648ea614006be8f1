package mining

import (
	"fmt"
	"strconv"
	"strings"
)

// Tuple is one entry of a DFS code (paper Fig. 7): the (i, j) DFS
// discovery indices of an edge's endpoints, their node labels, the edge
// label, and — the directed-graph extension — a direction flag telling
// whether the underlying edge runs i→j or j→i.
type Tuple struct {
	I, J   int
	LI, LJ string
	Out    bool // true: edge I->J in the digraph; false: J->I
	LE     string
}

// Forward reports whether the tuple discovers a new node (gSpan forward
// edge).
func (t Tuple) Forward() bool { return t.I < t.J }

func (t Tuple) String() string {
	d := "<"
	if t.Out {
		d = ">"
	}
	return fmt.Sprintf("(%d,%d,%s,%s,%s,%s)", t.I, t.J, t.LI, d, t.LE, t.LJ)
}

// dirRank orders edge directions: outgoing before incoming.
func dirRank(out bool) int {
	if out {
		return 0
	}
	return 1
}

// compareTuples implements the gSpan lexicographic order on DFS-code
// entries, extended with the direction flag. It returns -1, 0 or +1.
// Tuples are taken by reference: the walk's sorts and minimum scans
// compare them without copying.
func compareTuples(a, b *Tuple) int {
	af, bf := a.Forward(), b.Forward()
	switch {
	case !af && bf: // backward vs forward: (i,j) < (i2,j2) iff i < j2
		if a.I < b.J {
			return -1
		}
		return 1
	case af && !bf: // forward vs backward: less iff j <= i2
		if a.J <= b.I {
			return -1
		}
		return 1
	case af && bf:
		if a.J != b.J {
			return sign(a.J - b.J)
		}
		if a.I != b.I {
			return sign(b.I - a.I) // larger I first
		}
	default: // both backward
		if a.I != b.I {
			return sign(a.I - b.I)
		}
		if a.J != b.J {
			return sign(a.J - b.J)
		}
	}
	// Same position: compare labels.
	if c := strings.Compare(a.LI, b.LI); c != 0 {
		return c
	}
	if d := dirRank(a.Out) - dirRank(b.Out); d != 0 {
		return sign(d)
	}
	if c := strings.Compare(a.LE, b.LE); c != 0 {
		return c
	}
	return strings.Compare(a.LJ, b.LJ)
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

// Code is a DFS code: a pattern identified by its ordered edge tuples.
type Code []Tuple

// NumNodes returns the number of DFS-discovered nodes in the code.
func (c Code) NumNodes() int {
	n := 0
	for _, t := range c {
		if t.J+1 > n {
			n = t.J + 1
		}
		if t.I+1 > n {
			n = t.I + 1
		}
	}
	return n
}

// NodeLabels returns the node labels indexed by DFS index.
func (c Code) NodeLabels() []string {
	out := make([]string, c.NumNodes())
	for _, t := range c {
		out[t.I] = t.LI
		out[t.J] = t.LJ
	}
	return out
}

// nodeLabelsInto is NodeLabels writing into reused storage.
func (c Code) nodeLabelsInto(dst []string) []string {
	n := c.NumNodes()
	if cap(dst) < n {
		dst = make([]string, n)
	} else {
		dst = dst[:n]
	}
	for _, t := range c {
		dst[t.I] = t.LI
		dst[t.J] = t.LJ
	}
	return dst
}

// rightmostPathInto is RightmostPath writing into reused storage; parent
// is per-DFS-index scratch (-1 = root or undiscovered).
func (c Code) rightmostPathInto(path []int, parent []int32) ([]int, []int32) {
	path = path[:0]
	if len(c) == 0 {
		return path, parent
	}
	n := c.NumNodes()
	if cap(parent) < n {
		parent = make([]int32, n)
	} else {
		parent = parent[:n]
	}
	for i := range parent {
		parent[i] = -1
	}
	rm := 0
	for _, t := range c {
		if t.Forward() {
			parent[t.J] = int32(t.I)
			if t.J > rm {
				rm = t.J
			}
		}
	}
	for v := rm; ; {
		path = append(path, v)
		if parent[v] < 0 {
			break
		}
		v = int(parent[v])
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, parent
}

// RightmostPath returns the DFS indices on the rightmost path, root
// first. The rightmost vertex is the last forward-discovered node.
func (c Code) RightmostPath() []int {
	if len(c) == 0 {
		return nil
	}
	// Find the rightmost vertex: highest J of a forward edge (or node 0).
	rm := 0
	parent := map[int]int{}
	for _, t := range c {
		if t.Forward() {
			parent[t.J] = t.I
			if t.J > rm {
				rm = t.J
			}
		}
	}
	var path []int
	for v := rm; ; {
		path = append(path, v)
		p, ok := parent[v]
		if !ok {
			break
		}
		v = p
	}
	// reverse to root-first
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// ToGraph materialises the code as a pattern graph.
func (c Code) ToGraph() *Graph {
	g := &Graph{ID: -1, Labels: c.NodeLabels()}
	for _, t := range c {
		if t.Out {
			g.Edges = append(g.Edges, GEdge{From: t.I, To: t.J, Label: t.LE})
		} else {
			g.Edges = append(g.Edges, GEdge{From: t.J, To: t.I, Label: t.LE})
		}
	}
	g.Freeze()
	return g
}

// toGraphInto rebuilds c's pattern graph into lg, reusing its storage.
// Halves are appended in ascending edge index with at most one half per
// (node, edge) — DFS codes have no self-loops — so every adjacency list
// comes out already in the order Freeze's sort establishes, without
// sorting. Half ids are local: a half's id is the slot of the first half
// with an equal (direction, edge label, far-node label) triple, so equal
// ids mean equal triples without an interning table.
func (c Code) toGraphInto(lg *lgraph) {
	g := lg.Graph
	g.ID = -1
	g.Labels = c.nodeLabelsInto(g.Labels)
	g.Edges = g.Edges[:0]
	for _, t := range c {
		if t.Out {
			g.Edges = append(g.Edges, GEdge{From: t.I, To: t.J, Label: t.LE})
		} else {
			g.Edges = append(g.Edges, GEdge{From: t.J, To: t.I, Label: t.LE})
		}
	}
	n := len(g.Labels)
	if cap(g.adj) < n {
		na := make([][]half, n)
		copy(na, g.adj[:cap(g.adj)])
		g.adj = na
	} else {
		g.adj = g.adj[:n]
	}
	for i := range g.adj {
		g.adj[i] = g.adj[i][:0]
	}
	for i, e := range g.Edges {
		g.adj[e.From] = append(g.adj[e.From], half{other: e.To, eid: i, out: true, label: e.Label})
		g.adj[e.To] = append(g.adj[e.To], half{other: e.From, eid: i, out: false, label: e.Label})
	}
	lg.hid = firstEqualIDs(lg.hid, 2*len(g.Edges), func(a, b int) bool {
		ea, eb := &g.Edges[a/2], &g.Edges[b/2]
		return a%2 == b%2 && ea.Label == eb.Label && g.Labels[farEnd(ea, a)] == g.Labels[farEnd(eb, b)]
	})
}

// farEnd is the node at the far end of e seen from half slot s.
func farEnd(e *GEdge, s int) int {
	if s%2 == 0 {
		return e.To
	}
	return e.From
}

// firstEqualIDs fills dst with n ids: the id of item i is the smallest j
// with eq(i, j). Quadratic, for pattern-sized n.
func firstEqualIDs(dst []uint32, n int, eq func(i, j int) bool) []uint32 {
	if cap(dst) < n {
		dst = make([]uint32, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = uint32(i)
		for j := 0; j < i; j++ {
			if dst[j] == uint32(j) && eq(i, j) {
				dst[i] = uint32(j)
				break
			}
		}
	}
	return dst
}

// String renders the code compactly.
func (c Code) String() string {
	parts := make([]string, len(c))
	for i, t := range c {
		parts[i] = t.String()
	}
	return strings.Join(parts, " ")
}

// Key returns a map key identifying the code: an injective byte encoding
// cheap enough for per-visit memo keys (String is the readable form).
// Numbers are decimal with explicit separators; labels never contain the
// 0x00/0x01 separator bytes, so distinct codes never collide.
func (c Code) Key() string {
	n := 0
	for _, t := range c {
		n += len(t.LI) + len(t.LE) + len(t.LJ) + 12
	}
	b := make([]byte, 0, n)
	for _, t := range c {
		b = strconv.AppendInt(b, int64(t.I), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(t.J), 10)
		if t.Out {
			b = append(b, '>')
		} else {
			b = append(b, '<')
		}
		b = append(b, t.LI...)
		b = append(b, 0)
		b = append(b, t.LE...)
		b = append(b, 0)
		b = append(b, t.LJ...)
		b = append(b, 1)
	}
	return string(b)
}

// IsMinimal reports whether c is the canonical (lexicographically
// smallest) DFS code of its pattern graph. gSpan prunes every search
// branch rooted at a non-minimal code: each pattern is then grown exactly
// once (paper §3.3).
//
// The test simulates growing the minimal code of c's pattern graph p
// tuple by tuple, holding the partial isomorphisms of the minimal prefix
// into p as an embedding set. The minimal next tuple is the smallest of
// the prefix's extension groups (at MinSupport 1 none is dropped), found
// by one scan: only that group is compared with c[k] and materialised,
// into two slabs that alternate per step. The scratch comes from a pool;
// with a warm pool the call allocates nothing. The lattice walk itself
// does not use the pool (see miner.childMinimal).
func (c Code) IsMinimal() bool {
	mn := minimalPool.Get().(*miner)
	defer minimalPool.Put(mn)
	return mn.isMinimal(c)
}

// isMinimal is IsMinimal on the scratch of mn, a miner built by
// newMinimalMiner.
func (mn *miner) isMinimal(c Code) bool {
	if len(c) == 0 {
		return true
	}
	p := &mn.sc.pg
	c.toGraphInto(p)
	set, next := &mn.sc.slab[0], &mn.sc.slab[1]
	set.k, set.e, set.n = 2, 1, 0
	set.gids, set.tup = set.gids[:0], set.tup[:0]
	set.w = 0
	// Step 0: the minimal first tuple over all edges of p.
	var best Tuple
	have := false
	for v := range p.Labels {
		for _, h := range p.adj[v] {
			t := Tuple{I: 0, J: 1, LI: p.Labels[v], LJ: p.Labels[h.other], Out: h.out, LE: h.label}
			if !have || compareTuples(&t, &best) < 0 {
				best = t
				have = true
				set.gids, set.tup, set.n = set.gids[:0], set.tup[:0], 0
			}
			if compareTuples(&t, &best) == 0 {
				set.gids = append(set.gids, 0)
				set.tup = append(set.tup, int32(v), int32(h.other), int32(h.eid))
				set.n++
			}
		}
	}
	if cmp := compareTuples(&c[0], &best); cmp != 0 {
		return cmp < 0
	}
	cur := append(mn.sc.cur[:0], best)
	defer func() { mn.sc.cur = cur[:0] }()
	for k := 1; k < len(c); k++ {
		groups := mn.collectGroups(cur, set)
		if len(groups) == 0 {
			// c has more edges than any extension of the minimal
			// prefix; cannot happen for a valid code of p.
			return false
		}
		low := &groups[0]
		for i := 1; i < len(groups); i++ {
			if compareTuples(&groups[i].t, &low.t) < 0 {
				low = &groups[i]
			}
		}
		if cmp := compareTuples(&c[k], &low.t); cmp != 0 {
			return cmp < 0 // smaller than achievable means not a code of p; treat conservatively
		}
		// Keep only the embeddings achieving the minimum.
		mn.materializeInto(low, set, next)
		set, next = next, set
		cur = append(cur, low.t)
	}
	return true
}
