package mining

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Pattern is a frequent fragment.
type Pattern struct {
	Code       Code
	Labels     []string // node labels by DFS index
	Embeddings *EmbSet  // all occurrences, one slab row each
	// Support is the miner's frequency: number of graphs containing the
	// pattern for DgSpan, size of a maximum set of non-overlapping
	// embeddings for Edgar.
	Support int
	// Disjoint is a maximum non-overlapping subset of Embeddings, as row
	// indices (computed only in embedding-support mode).
	Disjoint []int32
}

// Config controls a mining run.
type Config struct {
	// MinSupport is the frequency threshold (≥ 2 for PA).
	MinSupport int
	// MaxNodes caps pattern size (0 = unlimited).
	MaxNodes int
	// EmbeddingSupport selects Edgar's frequency (non-overlapping
	// embeddings) over DgSpan's graph count. It chooses nothing else:
	// under either notion the walk grows induced node sets, a child
	// adding one node and every edge between that node and the parent's
	// (see collectGroups), so each connected node set is visited once,
	// with its induced graph as the pattern.
	EmbeddingSupport bool
	// GreedyMIS replaces the exact maximum-independent-set computation
	// with the greedy heuristic everywhere (ablation knob).
	GreedyMIS bool
	// MISExactLimit is the per-graph embedding count above which the
	// exact MIS falls back to greedy (0 = default 24; dense collision
	// graphs above that size cost more than their occasional extra
	// embedding is worth).
	MISExactLimit int
	// MaxPatterns aborts the search after visiting this many frequent
	// patterns (0 = unlimited); a safety valve for adversarial inputs.
	MaxPatterns int
	// PruneSubtree, when non-nil, is consulted after each visit: if it
	// returns true the pattern's extensions are skipped. Callers use it
	// for benefit-bound pruning (no descendant can beat the incumbent),
	// the PA-specific pruning of paper §3.5.
	PruneSubtree func(*Pattern) bool
	// ViableCount, when non-nil, filters extension groups by raw
	// candidate count before their embeddings are materialised: a group
	// with count c can only yield patterns of support <= c, so callers
	// prune groups whose optimistic benefit cannot matter. Must be
	// monotone (viable(c) implies viable(c+1)). The benefit-directed walk
	// asks it again immediately before each child descent, with the
	// child's misUpperBound in place of the count: that call runs between
	// sibling descents, so it observes incumbent state raised by earlier
	// siblings — the branch-and-bound half of the benefit-directed walk.
	ViableCount func(count int) bool
	// Lexicographic forces the classic gSpan sibling order: children are
	// visited in ascending DFS-code tuple order. By default (false) the
	// walk is benefit-directed: materialised siblings are visited in
	// descending order of their misUpperBound (an admissible bound on the
	// extractable-embedding count of the child's whole subtree), with the
	// tuple order as a deterministic tie-break, so high-payoff subtrees
	// raise the caller's incumbent before the long tail is walked. Both
	// orders visit the same pattern set absent pruning; callers whose
	// PruneSubtree/ViableCount policies are admissible and strict get
	// identical final incumbents either way. The lexicographic walk
	// computes no bounds.
	Lexicographic bool
	// RowClosed, when non-nil, reports whether an embedding row — graph
	// gid, nodes by DFS index — is closed: no superset of its node set
	// can ever be extracted. It must be monotone (a superset of a closed
	// row's nodes is closed), so a row's descendants inherit its verdict
	// and the walk asks it only for a forward extension's new row whose
	// parent row is open. A root or child whose rows are all closed is
	// skipped before it is visited, with its whole subtree. The nodes
	// slice is valid only during the call.
	RowClosed func(gid int, nodes []int32) bool
	// NoteCounts, when non-nil, receives the walk's child counters once
	// at its end.
	NoteCounts func(WalkCounts)
}

// WalkCounts are the children a walk rejected, by reason.
type WalkCounts struct {
	// NonMinimal counts children the minimal-DFS-code test rejected. The
	// test runs on every extension group that passes ViableCount, before
	// the group is materialised or bounded, so the count includes
	// children a bound or the pattern budget would have cut.
	NonMinimal int
	// Unextractable counts roots and materialised children skipped
	// because every row was closed (Config.RowClosed). The cut runs
	// before bounds, so it too includes children a bound would have cut.
	Unextractable int
}

func (c Config) exactLimit() int {
	if c.MISExactLimit == 0 {
		return 24
	}
	return c.MISExactLimit
}

// ext is one grouped rightmost extension: tuple t, then for a node step
// its backward tuples bws. bound is the child's misUpperBound, filled
// only by the benefit-directed walk.
type ext struct {
	t     Tuple
	bws   []Tuple
	set   *EmbSet
	bound int
}

// cmpExt is the benefit-directed sibling order: descending bound, then
// canonical step order. Steps are unique within a sibling group, so the
// order is total and independent of sort stability.
func cmpExt(a, b ext) int {
	if a.bound != b.bound {
		return b.bound - a.bound
	}
	return compareSteps(&a.t, a.bws, &b.t, b.bws)
}

// compareSteps orders the steps (a, abws) and (b, bbws) as the child
// codes they append: by first tuple, then by backward tuples, a run
// before its own extensions.
func compareSteps(a *Tuple, abws []Tuple, b *Tuple, bbws []Tuple) int {
	if c := compareTuples(a, b); c != 0 {
		return c
	}
	for i := range min(len(abws), len(bbws)) {
		if c := compareTuples(&abws[i], &bbws[i]); c != 0 {
			return c
		}
	}
	return sign(len(abws) - len(bbws))
}

// marks is per-graph scratch state for embedding traversal, versioned so
// it never needs clearing.
type marks struct {
	nodeVer []int32
	nodeVal []int32
	edgeVer []int32
	ver     int32
}

func (m *marks) reset(g *Graph) {
	if len(m.nodeVer) < g.NumNodes() {
		m.nodeVer = make([]int32, g.NumNodes())
		m.nodeVal = make([]int32, g.NumNodes())
	}
	if len(m.edgeVer) < len(g.Edges) {
		m.edgeVer = make([]int32, len(g.Edges))
	}
	m.ver++
}

func (m *marks) mapNode(n, dfs int) { m.nodeVer[n] = m.ver; m.nodeVal[n] = int32(dfs) }

func (m *marks) nodeDFS(n int) (int, bool) {
	if m.nodeVer[n] == m.ver {
		return int(m.nodeVal[n]), true
	}
	return 0, false
}

func (m *marks) useEdge(e int) { m.edgeVer[e] = m.ver }

func (m *marks) edgeUsed(e int) bool { return m.edgeVer[e] == m.ver }

// cand is one not-yet-materialised extension candidate (pass 1): the
// parent embedding's row, the realising graph edge, the newly mapped
// node (-1 for the minimality test's backward extensions) and, for a
// node step, the offset of its backward edges' ids in scratch.bwe. Four
// int32s — no pointers.
type cand struct {
	emb     int32
	eid     int32
	newNode int32
	bw      int32
}

// rawGroup is one node step's set of extension candidates before
// materialisation: the step's forward tuple t and backward tuples bws
// (the minimality test's groups hold a lone edge's tuple). Its contents
// are independent of any incumbent state: only which groups get
// materialised is a policy decision.
type rawGroup struct {
	t     Tuple
	bws   []Tuple
	key   uint64   // the probed hash of sig
	sig   []uint64 // the step's identity (collectGroups)
	cands []cand
}

// step returns the tuples the group's child code appends to its parent's.
func (g *rawGroup) step() []Tuple { return append([]Tuple{g.t}, g.bws...) }

// halfKey identifies one tuple of a node step within one extendGroups
// call: its pattern-side position, I of the forward tuple or J of a
// backward one, above the half id (Out, LE and the far node's label).
// There a tuple's other position and labels are fixed by the step, so
// the word identifies the tuple exactly. A position is a pattern node
// index, below the node count of a graph it embeds in, and node indices
// fit int32 throughout the miner.
func halfKey(pos int, hid uint32) uint64 { return uint64(pos)<<32 | uint64(hid) }

// scratch is the pooled per-miner scratch state of the walk's inner
// loop. Every buffer here is dead by the time the walk descends a level
// (extendGroups output is fully materialised before any child visit), so
// one instance serves all recursion depths.
type scratch struct {
	onPath []bool           // rightmost-path membership by DFS index
	groups map[uint64]int32 // signature hash -> slot in gl (holds only gl's keys)
	gl     []rawGroup       // groups in discovery order
	spare  [][]cand         // capacity-retaining cand buffers by slot
	order  []int32          // extendGroups' kept slots, sorted by tuple
	out    []rawGroup       // filtered, sorted extendGroups result

	rows rowIndex // materialize's child-row dedupe index

	// collectGroups' state: rightmost-path positions by DFS index,
	// one step's backward edges and identity, and the arenas its groups'
	// signatures, backward tuples and candidates' backward edge ids
	// live in until the next call.
	pathPos []int32
	back    []backHalf
	sig     []uint64
	sigs    []uint64
	bwt     []Tuple
	bwe     []int32

	gseen map[int32]struct{} // distinct-graph counting (graph support)

	labels []string // node labels of the current code, by DFS index
	rmpath []int    // rightmost path of the current code
	parent []int32  // forward parent of each node of the current code
	rm     int      // rightmost vertex of the current code

	slab [2]EmbSet // IsMinimal's partial isomorphisms, alternating per step
	pg   Graph     // IsMinimal's pattern graph, rebuilt in place
	hit  rawGroup  // IsMinimal's extensions equal to the code's next tuple
	kid  Code      // nodeMinimal's candidate child code

	mis misScratch // independent-set solver scratch
}

// miner holds one search instance: configuration, per-instance scratch
// state (the marks and scratch buffers) and the visit bookkeeping.
type miner struct {
	cfg     Config
	gx      *graphIndex
	visit   func(*Pattern)
	visited int
	aborted bool
	mk      marks     // reused across extendGroups calls
	sc      scratch   // reused across all lattice levels
	kids    [][]ext   // expand's child buffers by depth
	free    []*EmbSet // child sets expand never handed to the walk, for reuse
	mini    *miner    // nodeMinimal's scratch, made on first use

	counts WalkCounts // Config.NoteCounts
}

// extendGroups computes all rightmost extensions of (code, set) grouped
// by step, sorted by step order, without materialising child
// embeddings. Groups whose raw candidate count cannot reach MinSupport
// are dropped (a config constant, so this is state-independent). The
// returned slice and its cand buffers alias the miner's scratch: they
// are valid until the next extendGroups call on this miner, and every
// caller materialises them before descending.
func (mn *miner) extendGroups(code Code, set *EmbSet) []rawGroup {
	sc := &mn.sc
	gl := mn.collectGroups(code, set)
	sc.order = sc.order[:0]
	for i := range gl {
		if len(gl[i].cands) >= mn.cfg.MinSupport {
			sc.order = append(sc.order, int32(i))
		}
	}
	// Sort slots, not the wide groups themselves.
	slices.SortFunc(sc.order, func(a, b int32) int {
		return compareSteps(&gl[a].t, gl[a].bws, &gl[b].t, gl[b].bws)
	})
	sc.out = sc.out[:0]
	for _, i := range sc.order {
		sc.out = append(sc.out, gl[i])
	}
	return sc.out
}

// backHalf is one edge between a node step's new node and a mapped
// node: the far node's DFS index j, the edge seen from the new node, and
// that half's id.
type backHalf struct {
	j   int
	h   half
	hid uint32
}

// cmpBack orders backward halves as their tuples sort: all start at the
// new node, so by far index, direction and edge label. The edge id
// orders equal tuples, which only parallel edges share.
func cmpBack(a, b *backHalf) int {
	if a.j != b.j {
		return a.j - b.j
	}
	if d := dirRank(a.h.out) - dirRank(b.h.out); d != 0 {
		return d
	}
	if c := strings.Compare(a.h.label, b.h.label); c != 0 {
		return c
	}
	return a.h.eid - b.h.eid
}

// collectGroups is extendGroups' first pass: every node step of
// (code, set), grouped by step, in discovery order, unfiltered. The
// result aliases the miner's scratch like extendGroups'. A node step is a
// forward extension from a rightmost-path vertex w to an unmapped node v,
// together with every other edge between v and the row's mapped nodes,
// as backward tuples from v's DFS index in ascending order. A parent row
// holds every edge among its nodes, so the child row does too: rows are
// induced subgraphs, and a node set's rows all share one pattern.
//
// A DFS code lists a node's backward edges right after the forward edge
// that discovers it, and they reach only the new rightmost path: the
// path up to w. A step whose v has an edge to any other mapped node is
// therefore no code of the induced graph, and it is dropped. Removing
// the last-discovered node of a minimal code's graph leaves it connected,
// with the code's prefix as its code, and a prefix of a minimal code is
// minimal, so every connected node set is still reached, exactly once.
func (mn *miner) collectGroups(code Code, set *EmbSet) []rawGroup {
	sc := &mn.sc
	rmpath, labels := sc.setPrefix(code)
	if len(rmpath) == 0 {
		return nil
	}
	numNodes := len(labels)
	sc.pathPos = resize(sc.pathPos, numNodes)
	for d := range sc.pathPos {
		sc.pathPos[d] = -1
	}
	for p, d := range rmpath {
		sc.pathPos[d] = int32(p)
	}
	sc.resetGroups()
	sc.sigs, sc.bwt, sc.bwe = sc.sigs[:0], sc.bwt[:0], sc.bwe[:0]

	mk := &mn.mk
	for i := 0; i < set.Len(); i++ {
		g := mn.gx.get(set.GID(i))
		mk.reset(g.Graph)
		nodes := set.Nodes(i)
		for di, n := range nodes {
			mk.mapNode(int(n), di)
		}
		for p, w := range rmpath {
			for _, h := range g.adj[nodes[w]] {
				v := h.other
				if _, ok := mk.nodeDFS(v); ok {
					continue
				}
				back, ok := sc.backHalves(g, mk, v, h.eid, p)
				if !ok {
					continue
				}
				sig := append(sc.sig[:0], halfKey(w, g.hid[halfSlot(h.eid, h.out)]))
				for _, b := range back {
					sig = append(sig, halfKey(b.j, b.hid))
				}
				sc.sig = sig
				// The map keys on the signature's hash, probing past
				// slots whose group has another signature.
				key := hashWords(sig)
				s, found := int32(0), false
				for ; ; key++ {
					if s, found = sc.groups[key]; !found || slices.Equal(sc.gl[s].sig, sig) {
						break
					}
				}
				if !found {
					s = sc.openGroup(key, Tuple{I: w, J: numNodes, LI: labels[w], LJ: g.Labels[v], Out: h.out, LE: h.label})
					b0, s0 := len(sc.bwt), len(sc.sigs)
					for _, b := range back {
						sc.bwt = append(sc.bwt, Tuple{I: numNodes, J: b.j, LI: g.Labels[v], LJ: labels[b.j], Out: b.h.out, LE: b.h.label})
					}
					sc.sigs = append(sc.sigs, sig...)
					sc.gl[s].bws = sc.bwt[b0:len(sc.bwt):len(sc.bwt)]
					sc.gl[s].sig = sc.sigs[s0:len(sc.sigs):len(sc.sigs)]
				}
				bw := int32(len(sc.bwe))
				for _, b := range back {
					sc.bwe = append(sc.bwe, int32(b.h.eid))
				}
				sc.gl[s].cands = append(sc.gl[s].cands, cand{emb: int32(i), eid: int32(h.eid), newNode: int32(v), bw: bw})
			}
		}
	}
	return sc.keepSpare()
}

// backHalves returns the edges between v and the row's mapped nodes,
// other than the step's forward edge fe, in cmpBack order. ok is false
// when one reaches a mapped node off the new rightmost path, the first
// p+1 vertices of the current one.
func (sc *scratch) backHalves(g *lgraph, mk *marks, v, fe, p int) (back []backHalf, ok bool) {
	back = sc.back[:0]
	for _, h := range g.adj[v] {
		if h.eid == fe {
			continue
		}
		du, mapped := mk.nodeDFS(h.other)
		if !mapped {
			continue
		}
		if pp := sc.pathPos[du]; pp < 0 || int(pp) > p {
			return back, false
		}
		back = append(back, backHalf{j: du, h: h, hid: g.hid[halfSlot(h.eid, h.out)]})
		for k := len(back) - 1; k > 0 && cmpBack(&back[k], &back[k-1]) < 0; k-- {
			back[k], back[k-1] = back[k-1], back[k]
		}
	}
	sc.back = back
	return back, true
}

// resetGroups empties the group index by deleting the previous call's
// keys: O(keys inserted), where clear would cost the map's high-water
// capacity.
func (sc *scratch) resetGroups() {
	if sc.groups == nil {
		sc.groups = make(map[uint64]int32, 32)
	}
	for _, g := range sc.gl {
		delete(sc.groups, g.key)
	}
	sc.gl = sc.gl[:0]
}

// resize returns s with length n, reusing its storage when it fits.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// keepSpare retains the groups' grown cand buffers for the next call and
// returns the groups.
func (sc *scratch) keepSpare() []rawGroup {
	for i := range sc.gl {
		if i < len(sc.spare) {
			sc.spare[i] = sc.gl[i].cands
		} else {
			sc.spare = append(sc.spare, sc.gl[i].cands)
		}
	}
	return sc.gl
}

// The prefix state of a code is what a scan of its rightmost extensions
// reads: node labels by DFS index (NodeLabels), forward parents, the
// rightmost vertex, the rightmost path root first (RightmostPath) and
// its membership (onPath). setPrefix loads it for a whole code;
// isMinimal grows it by one tuple per step instead of reloading it.

// setPrefix loads code's prefix state and returns the rightmost path
// and the labels (both empty for an empty code).
func (sc *scratch) setPrefix(code Code) (rmpath []int, labels []string) {
	sc.resetPrefix()
	if len(code) == 0 {
		return sc.rmpath[:0], sc.labels
	}
	for i := range code {
		sc.growPrefix(&code[i])
	}
	return sc.pathPrefix()
}

// resetPrefix empties the prefix state.
func (sc *scratch) resetPrefix() {
	sc.labels, sc.parent, sc.rm = sc.labels[:0], sc.parent[:0], 0
}

// growPrefix adds tuple t to the prefix state's labels, parents and
// rightmost vertex; pathPrefix derives the rest.
func (sc *scratch) growPrefix(t *Tuple) {
	for n := max(t.I, t.J) + 1; len(sc.labels) < n; {
		sc.labels = append(sc.labels, "")
		sc.parent = append(sc.parent, -1)
	}
	sc.labels[t.I], sc.labels[t.J] = t.LI, t.LJ
	if t.Forward() {
		sc.parent[t.J] = int32(t.I)
		sc.rm = max(sc.rm, t.J)
	}
}

// pathPrefix derives the rightmost path and its membership from the
// parents, and returns the path and the labels.
func (sc *scratch) pathPrefix() (rmpath []int, labels []string) {
	if n := len(sc.labels); cap(sc.onPath) < n {
		sc.onPath = make([]bool, n)
	} else {
		sc.onPath = sc.onPath[:n]
		clear(sc.onPath)
	}
	sc.rmpath = sc.rmpath[:0]
	for v := sc.rm; ; v = int(sc.parent[v]) {
		sc.rmpath = append(sc.rmpath, v)
		sc.onPath[v] = true
		if sc.parent[v] < 0 {
			break
		}
	}
	slices.Reverse(sc.rmpath)
	return sc.rmpath, sc.labels
}

// openGroup starts the group for key with tuple t, reusing the slot's
// retained cand buffer, and returns its slot.
func (sc *scratch) openGroup(key uint64, t Tuple) int32 {
	s := int32(len(sc.gl))
	sc.groups[key] = s
	var buf []cand
	if int(s) < len(sc.spare) {
		buf = sc.spare[s][:0]
	}
	sc.gl = append(sc.gl, rawGroup{t: t, key: key, cands: buf})
	return s
}

// materialize is pass 2 for one group: write the child embeddings into a
// child set (see materializeInto). The set is one expand dropped earlier
// when there is one (see miner.free), else a new one; the slabs are
// sized for every candidate up front. ok is false when deduplication
// drops the group below MinSupport. Deterministic: the result depends
// only on the group.
func (mn *miner) materialize(g rawGroup, parent *EmbSet) (set *EmbSet, ok bool) {
	k, e := childShape(&g.t, len(g.bws), parent)
	var child *EmbSet
	if n := len(mn.free); n > 0 {
		child, mn.free = mn.free[n-1], mn.free[:n-1]
	} else {
		child = new(EmbSet)
	}
	if cap(child.gids) < len(g.cands) {
		child.gids = make([]int32, 0, len(g.cands))
	}
	if need := len(g.cands) * (k + e); cap(child.tup) < need {
		child.tup = make([]int32, 0, need)
	}
	mn.materializeInto(&g, parent, child)
	return child, child.n >= mn.cfg.MinSupport
}

// childShape returns the node and edge counts per embedding of parent's
// extension by t and, for a node step, bws backward tuples.
func childShape(t *Tuple, bws int, parent *EmbSet) (k, e int) {
	k, e = parent.k, parent.e+1+bws
	if t.Forward() {
		k++
	}
	return k, e
}

// materializeInto writes g's child embeddings into dst, reusing dst's
// slabs, deduplicating automorphic rediscoveries by 64-bit row hash with
// exact verification on collision. Each child row is the parent row
// extended in place: the new node, then the step's edge and a node
// step's backward edges. Rows keep candidate order, first of each kept.
// With a RowClosed predicate each row inherits its parent row's closed
// bit; a forward extension's row whose parent row is open asks the
// predicate.
func (mn *miner) materializeInto(g *rawGroup, parent, dst *EmbSet) {
	fwd := g.t.Forward()
	nb := int32(len(g.bws))
	closedFn := mn.cfg.RowClosed
	dst.k, dst.e = childShape(&g.t, len(g.bws), parent)
	dst.n, dst.gids, dst.tup, dst.closed = 0, dst.gids[:0], dst.tup[:0], dst.closed[:0]
	dst.w = 0
	rows := &mn.sc.rows
	rows.reset(len(g.cands))
	for _, c := range g.cands {
		gid := parent.gids[c.emb]
		base := len(dst.tup)
		dst.tup = append(dst.tup, parent.Nodes(int(c.emb))...)
		if fwd {
			dst.tup = append(dst.tup, c.newNode)
		}
		dst.tup = append(dst.tup, parent.Edges(int(c.emb))...)
		dst.tup = append(dst.tup, c.eid)
		dst.tup = append(dst.tup, mn.sc.bwe[c.bw:c.bw+nb]...)
		row := dst.tup[base:]
		if rows.add(hashRow(gid, row), int32(dst.n), func(j int32) bool {
			return dst.gids[j] == gid && slices.Equal(dst.row(int(j)), row)
		}) {
			dst.tup = dst.tup[:base]
			continue
		}
		if closedFn != nil {
			closed := parent.closed[c.emb]
			if !closed && fwd {
				closed = closedFn(int(gid), row[:dst.k])
			}
			dst.closed = append(dst.closed, closed)
		}
		dst.gids = append(dst.gids, gid)
		dst.n++
	}
}

// childHook, when non-nil, sees every minimality verdict of every walk:
// the miner, the parent code, the tuples the child appends (one for an
// edge step, a node step's forward and backward tuples) and the verdict.
// Only tests set it (export_test.go), and never while a walk runs.
var childHook func(mn *miner, code Code, step []Tuple, minimal bool)

// minimalPool holds minimal-code miners for Code.IsMinimal, so callers
// outside a walk do not reallocate the scratch (pattern graph, marks,
// candidate buffer, alternating embedding slabs) per call. The walk
// keeps its own: a garbage collection may drop pooled miners, and the
// walk's cost should not depend on when collections run.
var minimalPool = sync.Pool{New: func() any { return new(miner) }}

// pattern builds the Pattern for (code, set) and computes its support
// (and Disjoint in embedding mode). Pure given the inputs.
func (mn *miner) pattern(code Code, set *EmbSet) *Pattern {
	p := &Pattern{Code: code, Labels: code.NodeLabels(), Embeddings: set}
	p.Support = mn.computeSupport(p)
	return p
}

// computeSupport fills in Support (and Disjoint in embedding mode).
func (mn *miner) computeSupport(p *Pattern) int {
	if !mn.cfg.EmbeddingSupport {
		sc := &mn.sc
		if sc.gseen == nil {
			sc.gseen = make(map[int32]struct{}, 16)
		} else {
			clear(sc.gseen)
		}
		for _, g := range p.Embeddings.gids {
			sc.gseen[g] = struct{}{}
		}
		return len(sc.gseen)
	}
	p.Disjoint = disjointIndices(p.Embeddings, mn.cfg, &mn.sc.mis)
	return len(p.Disjoint)
}

// dfs is one search step: build the pattern, check frequency, then
// visit and descend.
func (mn *miner) dfs(code Code, set *EmbSet) {
	if mn.aborted {
		return
	}
	p := mn.pattern(code, set)
	if p.Support < mn.cfg.MinSupport {
		return
	}
	if mn.step(p) {
		mn.expand(code, set)
	}
}

// step visits a frequent pattern and reports whether the walk descends
// below it: not past the pattern budget, the size cap or a bound.
func (mn *miner) step(p *Pattern) bool {
	mn.visit(p)
	mn.visited++
	if mn.cfg.MaxPatterns > 0 && mn.visited >= mn.cfg.MaxPatterns {
		mn.aborted = true
		return false
	}
	if mn.cfg.MaxNodes > 0 && p.Code.NumNodes() >= mn.cfg.MaxNodes {
		return false
	}
	if mn.cfg.PruneSubtree != nil && mn.cfg.PruneSubtree(p) {
		return false
	}
	return true
}

// expand enumerates, filters, tests and materialises the extensions of
// (code, set), then recurses into each child. A group is first filtered
// by ViableCount, then tested for a minimal code (nodeMinimal), and only
// then materialised, so a non-minimal child costs no embeddings and no
// bound. Group viability and materialisation happen before any child is
// visited — the incumbent state a child visit mutates must not influence
// its siblings' group filtering, exactly as in a monolithic
// extend-then-loop. Materialising every kid first also releases the group
// scratch before the recursion reuses it. Only two things happen between
// sibling descents, and both are deliberate: the benefit-directed order
// (bounds are pure functions of the child sets) and the ViableCount test
// of each child's bound, which exists precisely to see the incumbent
// raised by earlier siblings.
func (mn *miner) expand(code Code, set *EmbSet) {
	groups := mn.extendGroups(code, set)
	if len(groups) == 0 {
		return
	}
	// The kids of one level stay live while the level's children are
	// walked, so each depth keeps its own buffer.
	depth := len(code)
	for len(mn.kids) <= depth {
		mn.kids = append(mn.kids, nil)
	}
	kids := mn.kids[depth][:0]
	for _, g := range groups {
		if mn.cfg.ViableCount != nil && !mn.cfg.ViableCount(len(g.cands)) {
			continue
		}
		ok := mn.nodeMinimal(code, &g)
		if childHook != nil {
			childHook(mn, code, g.step(), ok)
		}
		if !ok {
			mn.counts.NonMinimal++
			continue
		}
		cset, ok := mn.materialize(g, set)
		if !ok || mn.unextractable(cset) {
			mn.free = append(mn.free, cset)
			continue
		}
		// The group's backward tuples die with the next extendGroups
		// call, so the kid keeps a copy.
		kids = append(kids, ext{t: g.t, bws: slices.Clone(g.bws), set: cset})
	}
	bounded := !mn.cfg.Lexicographic
	if bounded {
		for i := range kids {
			kids[i].bound = misUpperBound(kids[i].set, &mn.sc.mis)
		}
		slices.SortFunc(kids, cmpExt)
	}
	for i := range kids {
		if mn.aborted {
			break // a truncated walk checks no more kids
		}
		k := &kids[i]
		if bounded && mn.cfg.ViableCount != nil && !mn.cfg.ViableCount(k.bound) {
			continue
		}
		mn.dfs(append(append(append(make(Code, 0, len(code)+1+len(k.bws)), code...), k.t), k.bws...), k.set)
		k.set = nil // the visited pattern holds it, and callers may keep it
	}
	// Sets no pattern was built on are reused by later materialize
	// calls.
	for _, k := range kids {
		if k.set != nil {
			mn.free = append(mn.free, k.set)
		}
	}
	clear(kids)
	mn.kids[depth] = kids[:0]
}

// nodeMinimal reports whether code extended by g's node step is a
// minimal code: the full test of the child (isMinimal), on the walk's
// own minimal-code miner.
func (mn *miner) nodeMinimal(code Code, g *rawGroup) bool {
	if mn.mini == nil {
		mn.mini = new(miner)
	}
	mn.sc.kid = append(append(append(mn.sc.kid[:0], code...), g.t), g.bws...)
	return mn.mini.isMinimal(mn.sc.kid)
}

// Mine enumerates every frequent pattern with at least one edge, calling
// visit for each (in canonical DFS-code growth order, benefit-directed
// among siblings unless cfg.Lexicographic). The search is complete:
// every frequent induced fragment is reported exactly once (via the
// minimal-DFS-code test), with its rows the induced subgraphs it occurs
// as, except where a PruneSubtree or ViableCount policy or the RowClosed
// cut skips a subtree. The walk is serial: the visit sequence (patterns,
// order, truncation point) is a pure function of the graphs and the
// policies' answers. The return value is the number of patterns visited
// — a deterministic work metric.
func Mine(graphs []*Graph, cfg Config, visit func(*Pattern)) int {
	gx := newGraphIndex(graphs)
	// A root with fewer rows than MinSupport has less support under
	// either notion.
	roots := seedPatterns(gx, graphs, cfg.MinSupport)

	mn := &miner{cfg: cfg, gx: gx, visit: visit}
	for _, s := range roots {
		if mn.aborted {
			break
		}
		if mn.cfg.RowClosed != nil {
			s.set.closed = make([]bool, s.set.Len())
			for i := range s.set.closed {
				s.set.closed[i] = mn.cfg.RowClosed(s.set.GID(i), s.set.Nodes(i))
			}
			if mn.unextractable(s.set) {
				continue
			}
		}
		mn.dfs(append(Code{s.t}, s.bws...), s.set)
	}
	if mn.cfg.NoteCounts != nil {
		mn.cfg.NoteCounts(mn.counts)
	}
	return mn.visited
}

// unextractable reports whether every row of set is closed, counting the
// cut (Config.RowClosed). Without a predicate no row is closed.
func (mn *miner) unextractable(set *EmbSet) bool {
	if mn.cfg.RowClosed == nil || slices.Contains(set.closed, false) {
		return false
	}
	mn.counts.Unextractable++
	return true
}

// seedPatterns builds the root patterns with at least minRows rows, in
// canonical step order. A root is the induced graph on two adjacent
// nodes, one per distinct minimal code. A pair joined by one edge, the
// common case, roots the smaller reading of that edge. Such edges are
// grouped by their two half ids, which fix the source label, the edge
// label and the target label, so each group is one root tuple and no
// string is hashed. A pair joined by several edges roots its minimal
// code (pairRoot). A first pass collects every root's rows, and a second
// packs the rows of the roots kept straight into slabs of their final
// size.
func seedPatterns(gx *graphIndex, graphs []*Graph, minRows int) []*ext {
	type seed struct {
		t   Tuple
		bws []Tuple // a several-edge root's backward tuples
		n   int     // rows
		set *EmbSet
	}
	// row is one root row in visiting order: its seed, its graph, and
	// the offset of its nodes and edges in tup.
	type row struct{ seed, gid, off int32 }
	byHalves := map[uint64]int32{} // one-edge roots
	byCode := map[string]int32{}   // several-edge roots, by pairRoot's key
	var seeds []seed
	edges := 0
	for _, g := range graphs {
		edges += len(g.Edges)
	}
	rows, tup := make([]row, 0, edges), make([]int32, 0, 3*edges) // a row per edge, bar several-edge pairs
	// Visit each edge once, from its source, and each pair of several
	// edges once, at its lowest edge id.
	for _, g := range graphs {
		lg := gx.get(g.ID)
		for v := range g.Labels {
			for _, h := range g.adj[v] {
				if !h.out {
					continue
				}
				if n, lo := pairEdges(g.adj[v], h.other); n > 1 && h.other != v {
					if h.eid != lo {
						continue
					}
					code, key, reads := pairRoot(lg, v, h.other)
					s, ok := byCode[key]
					if !ok {
						s = int32(len(seeds))
						byCode[key] = s
						seeds = append(seeds, seed{t: code[0], bws: code[1:]})
					}
					for _, r := range reads {
						rows = append(rows, row{s, int32(g.ID), int32(len(tup))})
						tup = append(tup, r...)
					}
					seeds[s].n += len(reads)
					continue
				}
				key := uint64(lg.hid[halfSlot(h.eid, true)])<<32 | uint64(lg.hid[halfSlot(h.eid, false)])
				s, ok := byHalves[key]
				if !ok {
					s = int32(len(seeds))
					byHalves[key] = s
					a := Tuple{I: 0, J: 1, LI: g.Labels[v], LJ: g.Labels[h.other], Out: true, LE: h.label}
					b := Tuple{I: 0, J: 1, LI: g.Labels[h.other], LJ: g.Labels[v], Out: false, LE: h.label}
					if compareTuples(&b, &a) < 0 {
						a = b
					}
					seeds = append(seeds, seed{t: a})
				}
				n0, n1 := v, h.other
				if !seeds[s].t.Out { // the root reads its edge from the target
					n0, n1 = n1, n0
				}
				rows = append(rows, row{s, int32(g.ID), int32(len(tup))})
				tup = append(tup, int32(n0), int32(n1), int32(h.eid))
				seeds[s].n++
			}
		}
	}
	var out []*ext
	for i := range seeds {
		if sd := &seeds[i]; sd.n >= minRows {
			e := 1 + len(sd.bws)
			sd.set = &EmbSet{k: 2, e: e, gids: make([]int32, 0, sd.n), tup: make([]int32, 0, (2+e)*sd.n)}
			out = append(out, &ext{t: sd.t, bws: sd.bws, set: sd.set})
		}
	}
	for _, r := range rows {
		sd := &seeds[r.seed]
		if sd.set == nil {
			continue
		}
		sd.set.gids = append(sd.set.gids, r.gid)
		sd.set.tup = append(sd.set.tup, tup[r.off:int(r.off)+2+sd.set.e]...)
		sd.set.n++
	}
	slices.SortFunc(out, func(a, b *ext) int { return compareSteps(&a.t, a.bws, &b.t, b.bws) })
	return out
}

// pairEdges returns the number of v's halves that reach w, and the
// lowest edge id among them (halves are in edge id order).
func pairEdges(hs []half, w int) (n, lo int) {
	for _, h := range hs {
		if h.other == w {
			if n == 0 {
				lo = h.eid
			}
			n++
		}
	}
	return n, lo
}

// pairRoot returns the minimal code of the induced graph on u and w,
// which several edges join, with an exact key for it, and every reading
// of the pair that spells it as a root row: the nodes as DFS 0 and 1,
// then the edge ids in code order. A reading is a forward tuple along
// one edge, then the others as backward tuples in cmpBack order. The key
// lists the half ids of the code's tuples.
func pairRoot(g *lgraph, u, w int) (code Code, key string, rows [][]int32) {
	var sig []uint64
	for _, ab := range [2][2]int{{u, w}, {w, u}} {
		a, b := ab[0], ab[1]
		for _, f := range g.adj[a] {
			if f.other != b {
				continue
			}
			c := Code{{I: 0, J: 1, LI: g.Labels[a], LJ: g.Labels[b], Out: f.out, LE: f.label}}
			r := []int32{int32(a), int32(b), int32(f.eid)}
			s := []uint64{uint64(g.hid[halfSlot(f.eid, f.out)])<<32 | uint64(g.hid[halfSlot(f.eid, !f.out)])}
			var back []backHalf
			for _, h := range g.adj[b] {
				if h.other == a && h.eid != f.eid {
					back = append(back, backHalf{h: h})
				}
			}
			slices.SortFunc(back, func(x, y backHalf) int { return cmpBack(&x, &y) })
			for _, bh := range back {
				c = append(c, Tuple{I: 1, J: 0, LI: g.Labels[b], LJ: g.Labels[a], Out: bh.h.out, LE: bh.h.label})
				r = append(r, int32(bh.h.eid))
				s = append(s, uint64(g.hid[halfSlot(bh.h.eid, bh.h.out)]))
			}
			cmp := -1
			if code != nil {
				cmp = compareSteps(&c[0], c[1:], &code[0], code[1:])
			}
			switch {
			case cmp < 0:
				code, sig, rows = c, s, [][]int32{r}
			case cmp == 0:
				rows = append(rows, r)
			}
		}
	}
	return code, fmt.Sprint(sig), rows
}
