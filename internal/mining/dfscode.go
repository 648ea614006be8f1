package mining

import (
	"fmt"
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
	if c := comparePos(a.I, a.J, b.I, b.J); c != 0 {
		return c
	}
	return compareLabels(a.LI, a.Out, a.LE, a.LJ, b)
}

// comparePos is compareTuples' first key: the order of the (i, j) and
// (i2, j2) positions alone. It returns 0 only for equal positions.
func comparePos(i, j, i2, j2 int) int {
	af, bf := i < j, i2 < j2
	switch {
	case !af && bf: // backward vs forward: (i,j) < (i2,j2) iff i < j2
		if i < j2 {
			return -1
		}
		return 1
	case af && !bf: // forward vs backward: less iff j <= i2
		if j <= i2 {
			return -1
		}
		return 1
	case af && bf:
		if j != j2 {
			return sign(j - j2)
		}
		return sign(i2 - i) // larger I first
	default: // both backward
		if i != i2 {
			return sign(i - i2)
		}
		return sign(j - j2)
	}
}

// compareLabels is compareTuples' second key, for tuples at equal
// positions: the labels and direction (li, out, le, lj) of one tuple
// against b's.
func compareLabels(li string, out bool, le, lj string, b *Tuple) int {
	if c := strings.Compare(li, b.LI); c != 0 {
		return c
	}
	if d := dirRank(out) - dirRank(b.Out); d != 0 {
		return sign(d)
	}
	if c := strings.Compare(le, b.LE); c != 0 {
		return c
	}
	return strings.Compare(lj, b.LJ)
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

// toGraphInto rebuilds c's pattern graph into g, reusing its storage.
// Halves are appended in ascending edge index with at most one half per
// (node, edge) — DFS codes have no self-loops — so every adjacency list
// comes out already in the order Freeze's sort establishes, without
// sorting.
func (c Code) toGraphInto(g *Graph) {
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
}

// String renders the code compactly.
func (c Code) String() string {
	parts := make([]string, len(c))
	for i, t := range c {
		parts[i] = t.String()
	}
	return strings.Join(parts, " ")
}

// IsMinimal reports whether c is the canonical (lexicographically
// smallest) DFS code of its pattern graph. gSpan prunes every search
// branch rooted at a non-minimal code: each pattern is then grown exactly
// once (paper §3.3).
//
// The test replays c's own growth in c's pattern graph p, holding the
// partial isomorphisms of the prefix c[:k] into p as an embedding set.
// Step k compares every rightmost extension of those isomorphisms with
// the target c[k]: the first smaller one proves c non-minimal, the equal
// ones become the next step's set, the larger ones are dropped. This is
// gSpan's own test (Yan & Han, ICDM 2002): c is minimal when no step
// offers an extension smaller than c's next tuple. The scratch comes from
// a pool; with a warm pool the call allocates nothing. The lattice walk
// keeps its own scratch for the test (see miner.nodeMinimal).
func (c Code) IsMinimal() bool {
	mn := minimalPool.Get().(*miner)
	defer minimalPool.Put(mn)
	return mn.isMinimal(c)
}

// isMinimal is IsMinimal on the scratch of mn. Nothing is grouped or
// hashed: each step keeps one candidate list, the extensions equal to
// c[k], and materialises it into two slabs that alternate per step.
func (mn *miner) isMinimal(c Code) bool {
	if len(c) == 0 {
		return true
	}
	sc := &mn.sc
	p := &sc.pg
	c.toGraphInto(p)
	set, next := &sc.slab[0], &sc.slab[1]
	set.k, set.e, set.n = 2, 1, 0
	set.gids, set.tup = set.gids[:0], set.tup[:0]
	set.w = 0
	// Step 0: every edge of p, seen from either end, is a first tuple
	// (0,1,...).
	pos := comparePos(0, 1, c[0].I, c[0].J)
	for v := range p.Labels {
		for _, h := range p.adj[v] {
			cmp := pos
			if cmp == 0 {
				cmp = compareLabels(p.Labels[v], h.out, h.label, p.Labels[h.other], &c[0])
			}
			switch cmp {
			case -1:
				return false
			case 0:
				set.gids = append(set.gids, 0)
				set.tup = append(set.tup, int32(v), int32(h.other), int32(h.eid))
				set.n++
			}
		}
	}
	if set.n == 0 {
		// Every first tuple is larger than c[0] (p has c's edges, so
		// there is one): c is smaller than any code of p, not one of them.
		return true
	}
	sc.resetPrefix()
	for k := 1; k < len(c); k++ {
		sc.growPrefix(&c[k-1])
		smaller, seen := mn.matchExtensions(&c[k], set)
		switch {
		case smaller:
			return false
		case len(sc.hit.cands) == 0:
			// No extension equals c[k]. With all of them larger, c is
			// smaller than any code of p; with none, c has more edges
			// than p extends to. Neither is a valid code of p, and
			// neither case arises from a real lattice walk.
			return seen
		}
		sc.hit.t = c[k]
		mn.materializeInto(&sc.hit, set, next)
		set, next = next, set
	}
	return true
}

// matchExtensions scans the rightmost extensions of (prefix, set) in the
// pattern graph against want, the code's next tuple, row by row: the
// backward ones from the rightmost vertex, then the forward ones from
// the rightmost path. The prefix is the one the scratch's prefix state
// has grown to. It stops with smaller = true at the first extension
// below want; otherwise sc.hit.cands holds the candidates of the
// extensions equal to want, in discovery order, and seen reports whether
// any extension exists.
func (mn *miner) matchExtensions(want *Tuple, set *EmbSet) (smaller, seen bool) {
	sc := &mn.sc
	p := &sc.pg
	sc.hit.cands = sc.hit.cands[:0]
	rmpath, labels := sc.pathPrefix()
	rm := rmpath[len(rmpath)-1]
	numNodes := len(labels)
	// match records the extension at position (i, j) with far label lj
	// along h; it reports false when the extension is smaller than want.
	match := func(i, j int, lj string, h *half, cd cand) bool {
		seen = true
		c := comparePos(i, j, want.I, want.J)
		if c == 0 {
			c = compareLabels(labels[i], h.out, h.label, lj, want)
		}
		switch c {
		case -1:
			return false
		case 0:
			sc.hit.cands = append(sc.hit.cands, cd)
		}
		return true
	}
	mk := &mn.mk
	for i := 0; i < set.Len(); i++ {
		mk.reset(p)
		nodes := set.Nodes(i)
		for di, n := range nodes {
			mk.mapNode(int(n), di)
		}
		for _, eid := range set.Edges(i) {
			mk.useEdge(int(eid))
		}
		// Backward from the rightmost vertex to rightmost-path vertices.
		for _, h := range p.adj[nodes[rm]] {
			if mk.edgeUsed(h.eid) {
				continue
			}
			du, ok := mk.nodeDFS(h.other)
			if !ok || du == rm || !sc.onPath[du] {
				continue
			}
			if !match(rm, du, labels[du], &h, cand{emb: int32(i), eid: int32(h.eid), newNode: -1}) {
				return true, true
			}
		}
		// Forward from every rightmost-path vertex to an unmapped node.
		for _, w := range rmpath {
			for _, h := range p.adj[nodes[w]] {
				if mk.edgeUsed(h.eid) {
					continue
				}
				if _, ok := mk.nodeDFS(h.other); ok {
					continue
				}
				if !match(w, numNodes, p.Labels[h.other], &h, cand{emb: int32(i), eid: int32(h.eid), newNode: int32(h.other)}) {
					return true, true
				}
			}
		}
	}
	return false, seen
}
