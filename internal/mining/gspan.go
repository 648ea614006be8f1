package mining

import (
	"slices"
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
	// embeddings) over DgSpan's graph count.
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
	// monotone (viable(c) implies viable(c+1)).
	ViableCount func(count int) bool
	// Lexicographic forces the classic gSpan sibling order: children are
	// visited in ascending DFS-code tuple order. By default (false) the
	// walk is benefit-directed: materialised siblings are visited in
	// descending order of their misUpperBound (an admissible bound on the
	// extractable-embedding count of the child's whole subtree), with the
	// tuple order as a deterministic tie-break, so high-payoff subtrees
	// raise the caller's incumbent before the long tail is walked. Both
	// orders visit the same pattern set absent pruning; callers whose
	// PruneSubtree/PruneChild policies are admissible and strict get
	// identical final incumbents either way.
	Lexicographic bool
	// PruneChild, when non-nil, is consulted immediately before each
	// child descent with the child's materialised embedding set and its
	// misUpperBound. Returning true skips the child: its pattern is never
	// built, visited or counted. Unlike ViableCount it runs between
	// sibling descents, so it observes incumbent state raised by earlier
	// siblings — the branch-and-bound half of the benefit-directed walk.
	// The set is valid only during the call: the walk reuses the storage
	// of children it does not descend into.
	PruneChild func(set *EmbSet, bound int) bool
	// Checkpoint, when non-nil, may fast-forward whole lattice subtrees
	// recorded by an earlier equivalent walk (see Checkpointer).
	Checkpoint Checkpointer
	// NoteNonMinimal, when non-nil, receives once at the end of a walk
	// the number of children the minimal-DFS-code test rejected.
	// Children are counted where the walk decides to skip them, after
	// PruneChild, and a checkpoint fast-forward charges its subtree's
	// recorded count, so the count is identical with and without
	// checkpointing.
	NoteNonMinimal func(n int)
}

func (c Config) exactLimit() int {
	if c.MISExactLimit == 0 {
		return 24
	}
	return c.MISExactLimit
}

// needBounds reports whether the walk computes misUpperBound per child:
// either the sibling order is benefit-directed or a PruneChild policy
// wants the bound.
func (c Config) needBounds() bool {
	return !c.Lexicographic || c.PruneChild != nil
}

// ext is one grouped rightmost extension. bound is the child's
// misUpperBound, filled only when Config.needBounds.
type ext struct {
	t     Tuple
	set   *EmbSet
	bound int
}

// cmpExt is the benefit-directed sibling order: descending bound, then
// canonical tuple order. Tuples are unique within a sibling group, so
// the order is total and independent of sort stability.
func cmpExt(a, b ext) int {
	if a.bound != b.bound {
		return b.bound - a.bound
	}
	return compareTuples(&a.t, &b.t)
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
// parent embedding's row, the realising graph edge, and the newly mapped
// node (-1 for backward extensions). Three int32s — no pointers.
type cand struct {
	emb     int32
	eid     int32
	newNode int32
}

// rawGroup is one tuple-grouped set of extension candidates before
// materialisation. Its contents are independent of any incumbent state:
// only which groups get materialised is a policy decision.
type rawGroup struct {
	t     Tuple
	key   uint64 // groupKey of t
	cands []cand
}

// groupKey identifies a tuple within one extendGroups call. There a
// tuple's LI is fixed by I, a forward tuple's J is the next DFS index,
// and a backward tuple's I is the rightmost vertex and its LJ is fixed
// by J — so the direction class, the varying position and the half id
// (Out, LE and the far node's label) identify the tuple exactly:
//
//	bit 63      forward
//	bits 32-62  position: I (forward) or J (backward)
//	bits 0-31   half id
//
// A position is a pattern node index, below the node count of a graph
// it embeds in, and node indices fit int32 throughout the miner.
func groupKey(fwd bool, pos int, hid uint32) uint64 {
	k := uint64(pos)<<32 | uint64(hid)
	if fwd {
		k |= 1 << 63
	}
	return k
}

// scratch is the pooled per-miner scratch state of the walk's inner
// loop. Every buffer here is dead by the time the walk descends a level
// (extendGroups output is fully materialised before any child visit), so
// one instance serves all recursion depths.
type scratch struct {
	onPath []bool           // rightmost-path membership by DFS index
	groups map[uint64]int32 // groupKey -> slot in gl (holds only gl's keys)
	gl     []rawGroup       // groups in discovery order
	spare  [][]cand         // capacity-retaining cand buffers by slot
	order  []int32          // extendGroups' kept slots, sorted by tuple
	out    []rawGroup       // filtered, sorted extendGroups result

	rows rowIndex // materialize's child-row dedupe index

	gseen map[int32]struct{} // distinct-graph counting (graph support)

	labels []string // node labels of the current code, by DFS index
	rmpath []int    // rightmost path of the current code
	parent []int32  // forward parent of each node of the current code
	rm     int      // rightmost vertex of the current code

	slab [2]EmbSet // IsMinimal's partial isomorphisms, alternating per step
	pg   Graph     // IsMinimal's pattern graph, rebuilt in place
	hit  rawGroup  // IsMinimal's extensions equal to the code's next tuple
	kid  Code      // childMinimal's candidate child code

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
	mini    *miner    // childMinimal's minimal-code scratch, made on first use
	kids    [][]ext   // expand's child buffers by depth
	free    []*EmbSet // child sets expand never handed to the walk, for reuse

	// nonMinimal counts children the walk rejected as non-minimal codes
	// (Config.NoteNonMinimal).
	nonMinimal int
}

// extendGroups computes all rightmost extensions of (code, set) grouped
// by tuple, sorted by tuple order, without materialising child
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
	slices.SortFunc(sc.order, func(a, b int32) int { return compareTuples(&gl[a].t, &gl[b].t) })
	sc.out = sc.out[:0]
	for _, i := range sc.order {
		sc.out = append(sc.out, gl[i])
	}
	return sc.out
}

// collectGroups is extendGroups' first pass: every rightmost extension
// of (code, set) grouped by tuple, in discovery order, unfiltered.
// Candidates are grouped by groupKey — integer half ids, no string
// hashing — and a group's Tuple is built once, when the group is first
// seen; candidates within a group stay in discovery order. The result
// aliases the miner's scratch like extendGroups'.
func (mn *miner) collectGroups(code Code, set *EmbSet) []rawGroup {
	sc := &mn.sc
	rmpath, labels := sc.setPrefix(code)
	if len(rmpath) == 0 {
		return nil
	}
	rm := rmpath[len(rmpath)-1]
	numNodes := len(labels)
	// Empty the group index by deleting the previous call's keys: O(keys
	// inserted), where clear would cost the map's high-water capacity.
	if sc.groups == nil {
		sc.groups = make(map[uint64]int32, 32)
	}
	for _, g := range sc.gl {
		delete(sc.groups, g.key)
	}
	sc.gl = sc.gl[:0]

	mk := &mn.mk
	for i := 0; i < set.Len(); i++ {
		g := mn.gx.get(set.GID(i))
		mk.reset(g.Graph)
		nodes := set.Nodes(i)
		for di, n := range nodes {
			mk.mapNode(int(n), di)
		}
		for _, eid := range set.Edges(i) {
			mk.useEdge(int(eid))
		}
		// Backward from the rightmost vertex to rightmost-path vertices.
		vrm := int(nodes[rm])
		for _, h := range g.adj[vrm] {
			if mk.edgeUsed(h.eid) {
				continue
			}
			du, ok := mk.nodeDFS(h.other)
			if !ok || du == rm || !sc.onPath[du] {
				continue
			}
			key := groupKey(false, du, g.hid[halfSlot(h.eid, h.out)])
			s, ok := sc.groups[key]
			if !ok {
				s = sc.openGroup(key, Tuple{I: rm, J: du, LI: labels[rm], LJ: labels[du], Out: h.out, LE: h.label})
			}
			sc.gl[s].cands = append(sc.gl[s].cands, cand{emb: int32(i), eid: int32(h.eid), newNode: -1})
		}
		// Forward from every rightmost-path vertex to an unmapped node.
		for _, w := range rmpath {
			vw := int(nodes[w])
			for _, h := range g.adj[vw] {
				if mk.edgeUsed(h.eid) {
					continue
				}
				if _, ok := mk.nodeDFS(h.other); ok {
					continue
				}
				key := groupKey(true, w, g.hid[halfSlot(h.eid, h.out)])
				s, ok := sc.groups[key]
				if !ok {
					s = sc.openGroup(key, Tuple{I: w, J: numNodes, LI: labels[w], LJ: g.Labels[h.other], Out: h.out, LE: h.label})
				}
				sc.gl[s].cands = append(sc.gl[s].cands, cand{emb: int32(i), eid: int32(h.eid), newNode: int32(h.other)})
			}
		}
	}

	// Retain grown cand buffers for the next call.
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

func int32sEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// materialize is pass 2 for one group: write the child embeddings into a
// child set (see materializeInto). The set is one expand dropped earlier
// when there is one (see miner.free), else a new one; the slabs are
// sized for every candidate up front. ok is false when deduplication
// drops the group below MinSupport. Deterministic: the result depends
// only on the group.
func (mn *miner) materialize(g rawGroup, parent *EmbSet) (set *EmbSet, ok bool) {
	k, e := childShape(g.t, parent)
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
// extension by t.
func childShape(t Tuple, parent *EmbSet) (k, e int) {
	k, e = parent.k, parent.e+1
	if t.Forward() {
		k++
	}
	return k, e
}

// materializeInto writes g's child embeddings into dst, reusing dst's
// slabs, deduplicating automorphic rediscoveries by 64-bit row hash with
// exact verification on collision. Each child row is the parent row
// extended in place; rows keep candidate order, first of each kept.
func (mn *miner) materializeInto(g *rawGroup, parent, dst *EmbSet) {
	fwd := g.t.Forward()
	dst.k, dst.e = childShape(g.t, parent)
	dst.n, dst.gids, dst.tup = 0, dst.gids[:0], dst.tup[:0]
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
		row := dst.tup[base:]
		if rows.add(hashRow(gid, row), int32(dst.n), func(j int32) bool {
			return dst.gids[j] == gid && int32sEqual(dst.row(int(j)), row)
		}) {
			dst.tup = dst.tup[:base]
			continue
		}
		dst.gids = append(dst.gids, gid)
		dst.n++
	}
}

// minimalPool holds minimal-code miners for Code.IsMinimal, so callers
// outside a walk do not reallocate the scratch (pattern graph, marks,
// candidate buffer, alternating embedding slabs) per call.
var minimalPool = sync.Pool{New: func() any { return new(miner) }}

// childMinimal reports whether code extended by t is a minimal code,
// on scratch owned by mn. A walk runs the test once per candidate child;
// the child is built in a reused buffer, so a non-minimal child
// allocates nothing. The walk keeps its own minimal-code miner rather
// than taking minimalPool's per call: a garbage collection may drop
// pooled miners, and the walk's cost should not depend on when
// collections run.
func (mn *miner) childMinimal(code Code, t Tuple) bool {
	if mn.mini == nil {
		mn.mini = new(miner)
	}
	mn.sc.kid = append(append(mn.sc.kid[:0], code...), t)
	return mn.mini.isMinimal(mn.sc.kid)
}

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
// visit and descend — or fast-forward the whole subtree through the
// checkpointer. A checkpointer's Begin/End bracket the subtree with its
// visit and non-minimal counts.
func (mn *miner) dfs(code Code, set *EmbSet) {
	if mn.aborted {
		return
	}
	p := mn.pattern(code, set)
	if p.Support < mn.cfg.MinSupport {
		return
	}
	if mn.fastForward(p) {
		return
	}
	ck := mn.cfg.Checkpoint
	var tok any
	v0, nm0 := mn.visited, mn.nonMinimal
	if ck != nil {
		tok = ck.Begin(p)
	}
	if mn.step(p) {
		mn.expand(code, set)
	}
	if tok != nil {
		ck.End(tok, mn.visited-v0, mn.nonMinimal-nm0, mn.aborted)
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

// expand enumerates, filters and materialises the extensions of (code,
// set), then recurses into each minimal child. Group viability and
// materialisation happen before any child is visited — the incumbent
// state a child visit mutates must not influence its siblings' group
// filtering, exactly as in a monolithic extend-then-loop. Materialising
// every kid first also releases the group scratch before the recursion
// reuses it. Only two things happen between sibling descents, and both
// are deliberate: the benefit-directed order (bounds are pure functions
// of the child sets) and PruneChild, which exists precisely to see the
// incumbent raised by earlier siblings.
func (mn *miner) expand(code Code, set *EmbSet) {
	groups := mn.extendGroups(code, set)
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
		cset, ok := mn.materialize(g, set)
		if !ok {
			mn.free = append(mn.free, cset)
			continue
		}
		kids = append(kids, ext{t: g.t, set: cset})
	}
	if mn.cfg.needBounds() {
		for i := range kids {
			kids[i].bound = misUpperBound(kids[i].set, &mn.sc.mis)
		}
		if !mn.cfg.Lexicographic {
			slices.SortFunc(kids, cmpExt)
		}
	}
	for i := range kids {
		if mn.aborted {
			break // a truncated walk checks no more kids
		}
		k := &kids[i]
		if mn.cfg.PruneChild != nil && mn.cfg.PruneChild(k.set, k.bound) {
			continue
		}
		if !mn.childMinimal(code, k.t) {
			mn.nonMinimal++
			continue
		}
		mn.dfs(append(append(make(Code, 0, len(code)+1), code...), k.t), k.set)
		k.set = nil // the visited pattern holds it, and callers may keep it
	}
	// Sets no pattern was built on are reused by later materialize
	// calls; the hooks that saw them do not keep them.
	for _, k := range kids {
		if k.set != nil {
			mn.free = append(mn.free, k.set)
		}
	}
	clear(kids)
	mn.kids[depth] = kids[:0]
}

// Mine enumerates every frequent pattern with at least one edge, calling
// visit for each (in canonical DFS-code growth order, benefit-directed
// among siblings unless cfg.Lexicographic). The search is complete:
// every frequent fragment is reported exactly once (via the
// minimal-DFS-code test), except where a PruneChild policy cuts a
// subtree. The walk is serial: the visit sequence (patterns, order,
// truncation point) is a pure function of the graphs and the policies'
// answers. The return value is the number of patterns visited, including visits
// charged by checkpoint fast-forwards — a deterministic work metric.
func Mine(graphs []*Graph, cfg Config, visit func(*Pattern)) int {
	gx := newGraphIndex(graphs)
	roots := seedPatterns(graphs)

	mn := &miner{cfg: cfg, gx: gx, visit: visit}
	for _, s := range roots {
		mn.dfs(Code{s.t}, s.set)
	}
	if mn.cfg.NoteNonMinimal != nil {
		mn.cfg.NoteNonMinimal(mn.nonMinimal)
	}
	return mn.visited
}

// seedPatterns builds the 1-edge root patterns: one per distinct minimal
// single-edge tuple, in canonical tuple order. Embedding rows are packed
// straight into per-seed slabs.
func seedPatterns(graphs []*Graph) []*ext {
	// rows accumulates (gid, src-node, dst-node, eid) quads per tuple.
	seeds := map[Tuple]*[]int32{}
	for _, g := range graphs {
		for v := range g.Labels {
			for _, h := range g.adj[v] {
				if !h.out {
					continue // visit each edge once, from its source
				}
				a := Tuple{I: 0, J: 1, LI: g.Labels[v], LJ: g.Labels[h.other], Out: true, LE: h.label}
				b := Tuple{I: 0, J: 1, LI: g.Labels[h.other], LJ: g.Labels[v], Out: false, LE: h.label}
				t := a
				n0, n1 := v, h.other
				if compareTuples(&b, &a) < 0 {
					t = b
					n0, n1 = h.other, v
				}
				rows, ok := seeds[t]
				if !ok {
					rows = new([]int32)
					seeds[t] = rows
				}
				*rows = append(*rows, int32(g.ID), int32(n0), int32(n1), int32(h.eid))
			}
		}
	}
	out := make([]*ext, 0, len(seeds))
	for t, rows := range seeds {
		set := &EmbSet{
			k:    2,
			e:    1,
			n:    len(*rows) / 4,
			gids: make([]int32, 0, len(*rows)/4),
			tup:  make([]int32, 0, len(*rows)/4*3),
		}
		for i := 0; i < len(*rows); i += 4 {
			set.gids = append(set.gids, (*rows)[i])
			set.tup = append(set.tup, (*rows)[i+1], (*rows)[i+2], (*rows)[i+3])
		}
		out = append(out, &ext{t: t, set: set})
	}
	slices.SortFunc(out, func(a, b *ext) int { return compareTuples(&a.t, &b.t) })
	return out
}
