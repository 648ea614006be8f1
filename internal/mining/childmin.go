package mining

// The edge walk's minimal-code test (graph-count support) is
// incremental; the induced walk's node steps take the full test
// (nodeMinimal). isMinimal replays a code c step by step in its own
// pattern graph p, and step j's set S_j holds the partial isomorphisms
// of c[:j+1] into p that read exactly c[:j+1]. The walk keeps those
// sets for the code it is expanding, one per tuple (miner.steps). A
// child c' = c+t has the pattern graph p plus one edge e (and, for a
// forward t, its new node), and c is minimal, so every extension that
// does not use e was already checked when c was tested. childMinimal
// therefore checks only e:
//
//   - at step 0, read from either end, against c[0];
//   - at each step j, as a rightmost extension of each row of S_{j-1},
//     against c'[j].
//
// If e is smaller anywhere, c' is not minimal. If it is equal at step
// j = len(c), it adds a row to S'_{len(c)}; the other S'_j are c's. If
// it is equal at some earlier step, c' has partial isomorphisms c did
// not, and the test falls back to the full isMinimal, which records all
// of c''s sets. Step len(c) has no extension besides e's: S_{len(c)-1}
// maps all of c's edges, which are all of p's.

// rootStep is every root code's only step set: the identity. A root
// tuple is the smaller reading of its edge, and the two readings differ
// in direction, so the other one never equals it.
var rootStep = &EmbSet{k: 2, e: 1, n: 1, gids: []int32{0}, tup: []int32{0, 1, 0}}

// stepPrefix is the prefix state of one parent code c at every step of
// its children's tests: for each j, the rightmost vertex, node count and
// rightmost-path membership of c[:j+1]. expand loads it once per parent;
// childMinimal reads it for every child.
type stepPrefix struct {
	labels []string // node labels of c by DFS index
	rm     []int32  // rm[j]: rightmost vertex of c[:j+1]
	nodes  []int32  // nodes[j]: node count of c[:j+1]
	onPath []bool   // onPath[j*len(labels)+d]: d is on c[:j+1]'s rightmost path
}

// load computes code's prefix state, growing it a tuple at a time on
// sc's prefix scratch, which it leaves holding code's whole prefix.
func (ps *stepPrefix) load(sc *scratch, code Code) {
	n, nn := len(code), code.NumNodes()
	ps.rm, ps.nodes = resize(ps.rm, n), resize(ps.nodes, n)
	ps.onPath = resize(ps.onPath, n*nn)
	clear(ps.onPath)
	sc.resetPrefix()
	for j := range code {
		sc.growPrefix(&code[j])
		sc.pathPrefix()
		ps.rm[j], ps.nodes[j] = int32(sc.rm), int32(len(sc.labels))
		copy(ps.onPath[j*nn:], sc.onPath)
	}
	ps.labels = append(ps.labels[:0], sc.labels...)
}

// resize returns s with length n, reusing its storage when it fits.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// childMinimal reports whether code extended by t is a minimal code.
// code must be minimal, with its step sets in mn.steps and its prefix
// state in mn.pre, and t one of its rightmost extensions. When the child
// is minimal its new step sets are appended to dst: S'_{len(code)}
// alone, or all of S'_0..S'_{len(code)} when the test fell back to
// isMinimal. Sets come from mn.stepFree, so a warm test allocates
// nothing.
func (mn *miner) childMinimal(code Code, t *Tuple, dst []*EmbSet) ([]*EmbSet, bool) {
	n := len(code)
	// Step 0: e read from t.I's end and from t.J's end.
	c0 := &code[0]
	switch min(compareLabels(t.LI, t.Out, t.LE, t.LJ, c0), compareLabels(t.LJ, !t.Out, t.LE, t.LI, c0)) {
	case -1:
		return dst, false
	case 0:
		return mn.childMinimalFull(code, t, dst)
	}
	ps := &mn.pre
	nn := len(ps.labels)
	var last *EmbSet // S'_n, taken when step n finds its first row
	for j := 1; j <= n; j++ {
		want := t
		if j < n {
			want = &code[j]
		}
		prev := mn.steps[j-1]
		rm, cnt := int(ps.rm[j-1]), int(ps.nodes[j-1])
		onPath := ps.onPath[(j-1)*nn : j*nn]
		for r := 0; r < prev.n; r++ {
			nodes := prev.Nodes(r)
			da, db := indexOf(nodes, t.I), indexOf(nodes, t.J)
			// e as a rightmost extension of row r: (i, jj) with the
			// direction seen from i and the far node's label.
			var i, jj int
			var out bool
			var lj string
			switch {
			case da == rm && db >= 0 && onPath[db]:
				i, jj, out, lj = rm, db, t.Out, ps.labels[db]
			case db == rm && da >= 0 && onPath[da]:
				i, jj, out, lj = rm, da, !t.Out, ps.labels[da]
			case da >= 0 && db < 0 && onPath[da]:
				i, jj, out, lj = da, cnt, t.Out, t.LJ
			case db >= 0 && da < 0 && onPath[db]:
				i, jj, out, lj = db, cnt, !t.Out, t.LI
			default:
				continue
			}
			c := comparePos(i, jj, want.I, want.J)
			if c == 0 {
				c = compareLabels(ps.labels[i], out, t.LE, lj, want)
			}
			switch {
			case c < 0:
				if last != nil {
					mn.stepFree = append(mn.stepFree, last)
				}
				return dst, false
			case c > 0:
				continue
			case j < n:
				return mn.childMinimalFull(code, t, dst)
			}
			if last == nil {
				last = mn.takeStep()
				last.k, last.e = childShape(t, 0, prev)
			}
			last.gids = append(last.gids, 0)
			last.tup = append(last.tup, nodes...)
			if t.Forward() {
				last.tup = append(last.tup, int32(t.J))
			}
			last.tup = append(last.tup, prev.Edges(r)...)
			last.tup = append(last.tup, int32(n))
			last.n++
		}
	}
	// The identity row always reads t at step n, so last is set.
	return append(dst, last), true
}

// childMinimalFull is childMinimal's fallback: the full test of the
// child on the walk's own minimal-code miner, recording every step set.
func (mn *miner) childMinimalFull(code Code, t *Tuple, dst []*EmbSet) ([]*EmbSet, bool) {
	if mn.mini == nil {
		mn.mini = new(miner)
	}
	mn.sc.kid = append(append(mn.sc.kid[:0], code...), *t)
	s0 := len(dst)
	for range mn.sc.kid {
		dst = append(dst, mn.takeStep())
	}
	if !mn.mini.isMinimal(mn.sc.kid, dst[s0:]) {
		mn.stepFree = append(mn.stepFree, dst[s0:]...)
		clear(dst[s0:])
		return dst[:s0], false
	}
	return dst, true
}

// nodeMinimal reports whether code extended by g's node step is a
// minimal code: the full test of the child, on the walk's own
// minimal-code miner. The induced walk keeps no step sets, and a node
// step adds a node and several edges, which the incremental test of
// childMinimal does not cover.
func (mn *miner) nodeMinimal(code Code, g *rawGroup) bool {
	if mn.mini == nil {
		mn.mini = new(miner)
	}
	mn.sc.kid = append(append(append(mn.sc.kid[:0], code...), g.t), g.bws...)
	return mn.mini.isMinimal(mn.sc.kid, nil)
}

// takeStep returns an empty step set, reusing a released one.
func (mn *miner) takeStep() *EmbSet {
	n := len(mn.stepFree)
	if n == 0 {
		return new(EmbSet)
	}
	s := mn.stepFree[n-1]
	mn.stepFree = mn.stepFree[:n-1]
	s.n, s.w, s.gids, s.tup = 0, 0, s.gids[:0], s.tup[:0]
	return s
}

// swapSteps exchanges a child's step sets with the walk's: kid holds
// the sets of steps len(mn.steps)-len(kid) onwards. Swapping in before
// the child's subtree and out after it leaves both as they were.
func (mn *miner) swapSteps(kid []*EmbSet) {
	lo := len(mn.steps) - len(kid)
	for i := range kid {
		mn.steps[lo+i], kid[i] = kid[i], mn.steps[lo+i]
	}
}

// indexOf returns the position of v in s, or -1.
func indexOf(s []int32, v int) int {
	for i, x := range s {
		if int(x) == v {
			return i
		}
	}
	return -1
}
