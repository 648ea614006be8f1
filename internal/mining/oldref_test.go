package mining

import (
	"sort"
	"strconv"
)

// This file preserves the pre-slab (boxed []*Embedding) minimality test
// and independent-set solver, verbatim except for renames, as test-only
// references: the differential suites hold IsMinimal, the walk's verdicts
// and its disjoint rows to them.

// key identifies an embedding exactly (the old string dedupe key).
func (e *Embedding) key() string {
	buf := make([]byte, 0, 8+6*(len(e.Nodes)+len(e.Edges)))
	buf = strconv.AppendInt(buf, int64(e.GID), 10)
	buf = append(buf, ':')
	for _, n := range e.Nodes {
		buf = strconv.AppendInt(buf, int64(n), 10)
		buf = append(buf, ',')
	}
	buf = append(buf, '|')
	for _, d := range e.Edges {
		buf = strconv.AppendInt(buf, int64(d), 10)
		buf = append(buf, ',')
	}
	return string(buf)
}

type oldExt struct {
	t    Tuple
	embs []*Embedding
}

type oldCand struct {
	emb     *Embedding
	eid     int
	newNode int
}

type oldRawGroup struct {
	t     Tuple
	cands []oldCand
}

type oldMiner struct {
	cfg     Config
	graphOf func(int) *Graph
	mk      marks
}

func (mn *oldMiner) extendGroups(code Code, embs []*Embedding) []oldRawGroup {
	rmpath := code.RightmostPath()
	if len(rmpath) == 0 {
		return nil
	}
	rm := rmpath[len(rmpath)-1]
	onPath := make(map[int]bool, len(rmpath))
	for _, v := range rmpath {
		onPath[v] = true
	}
	labels := code.NodeLabels()
	numNodes := len(labels)

	groups := map[Tuple][]oldCand{}
	mk := &mn.mk
	for _, emb := range embs {
		g := mn.graphOf(emb.GID)
		mk.reset(g)
		for di, n := range emb.Nodes {
			mk.mapNode(n, di)
		}
		for _, eid := range emb.Edges {
			mk.useEdge(eid)
		}
		vrm := emb.Nodes[rm]
		for _, h := range g.adj[vrm] {
			if mk.edgeUsed(h.eid) {
				continue
			}
			du, ok := mk.nodeDFS(h.other)
			if !ok || du == rm || !onPath[du] {
				continue
			}
			t := Tuple{I: rm, J: du, LI: labels[rm], LJ: labels[du], Out: h.out, LE: h.label}
			groups[t] = append(groups[t], oldCand{emb: emb, eid: h.eid, newNode: -1})
		}
		for _, w := range rmpath {
			vw := emb.Nodes[w]
			for _, h := range g.adj[vw] {
				if mk.edgeUsed(h.eid) {
					continue
				}
				if _, ok := mk.nodeDFS(h.other); ok {
					continue
				}
				t := Tuple{I: w, J: numNodes, LI: labels[w], LJ: g.Labels[h.other], Out: h.out, LE: h.label}
				groups[t] = append(groups[t], oldCand{emb: emb, eid: h.eid, newNode: h.other})
			}
		}
	}

	out := make([]oldRawGroup, 0, len(groups))
	for t, cands := range groups {
		if len(cands) < mn.cfg.MinSupport {
			continue
		}
		out = append(out, oldRawGroup{t: t, cands: cands})
	}
	sort.Slice(out, func(i, j int) bool { return compareTuples(&out[i].t, &out[j].t) < 0 })
	return out
}

func (mn *oldMiner) materialize(g oldRawGroup) (embs []*Embedding, ok bool) {
	embs = make([]*Embedding, 0, len(g.cands))
	seen := make(map[string]bool, len(g.cands))
	for _, c := range g.cands {
		ne := &Embedding{GID: c.emb.GID}
		if c.newNode >= 0 {
			ne.Nodes = append(append(make([]int, 0, len(c.emb.Nodes)+1), c.emb.Nodes...), c.newNode)
		} else {
			ne.Nodes = c.emb.Nodes
		}
		ne.Edges = append(append(make([]int, 0, len(c.emb.Edges)+1), c.emb.Edges...), c.eid)
		k := ne.key()
		if seen[k] {
			continue
		}
		seen[k] = true
		embs = append(embs, ne)
	}
	return embs, len(embs) >= mn.cfg.MinSupport
}

// oldExtendFull materialises every extension group, with no frequency
// or viability filtering: the growth step of the boxed minimality test,
// which the flat IsMinimal replaced by materialising only the minimum.
func oldExtendFull(code Code, embs []*Embedding, graphOf func(int) *Graph) []oldExt {
	mn := &oldMiner{cfg: Config{MinSupport: 1}, graphOf: graphOf}
	groups := mn.extendGroups(code, embs)
	out := make([]oldExt, 0, len(groups))
	for _, g := range groups {
		if cembs, ok := mn.materialize(g); ok {
			out = append(out, oldExt{t: g.t, embs: cembs})
		}
	}
	return out
}

// oldIsMinimal is the boxed-layout Code.IsMinimal: partial isomorphisms
// are []*Embedding, rebuilt (and reallocated) at every growth step.
func oldIsMinimal(c Code) bool {
	if len(c) == 0 {
		return true
	}
	p := c.ToGraph()
	var embs []*Embedding
	var best Tuple
	for v := range p.Labels {
		for _, h := range p.adj[v] {
			t := Tuple{I: 0, J: 1, LI: p.Labels[v], LJ: p.Labels[h.other], Out: h.out, LE: h.label}
			if embs == nil || compareTuples(&t, &best) < 0 {
				best = t
				embs = embs[:0]
			}
			if compareTuples(&t, &best) == 0 {
				embs = append(embs, &Embedding{Nodes: []int{v, h.other}, Edges: []int{h.eid}})
			}
		}
	}
	if compareTuples(&best, &c[0]) != 0 {
		return compareTuples(&c[0], &best) <= 0
	}
	cur := Code{best}
	for k := 1; k < len(c); k++ {
		exts := oldExtendFull(cur, embs, func(int) *Graph { return p })
		if len(exts) == 0 {
			return false
		}
		minT := exts[0].t
		for _, e := range exts[1:] {
			if compareTuples(&e.t, &minT) < 0 {
				minT = e.t
			}
		}
		if cmp := compareTuples(&c[k], &minT); cmp != 0 {
			return cmp < 0
		}
		embs = nil
		for _, e := range exts {
			if compareTuples(&e.t, &minT) == 0 {
				embs = append(embs, e.embs...)
			}
		}
		cur = append(cur, minT)
	}
	return true
}

// oldDisjointEmbeddings and helpers: the pre-bitset MIS front end with
// string dedupe keys and allocating bitset operations.
func oldDisjointEmbeddings(embs []*Embedding, cfg Config) []*Embedding {
	byGID := map[int][]*Embedding{}
	var gids []int
	for _, e := range embs {
		if _, ok := byGID[e.GID]; !ok {
			gids = append(gids, e.GID)
		}
		byGID[e.GID] = append(byGID[e.GID], e)
	}
	sort.Ints(gids)

	var out []*Embedding
	for _, gid := range gids {
		group := oldDedupeByNodeSet(byGID[gid])
		if cfg.GreedyMIS || len(group) > cfg.exactLimit() {
			out = append(out, oldGreedyDisjoint(group)...)
			continue
		}
		out = append(out, oldExactDisjoint(group)...)
	}
	return out
}

func oldDedupeByNodeSet(group []*Embedding) []*Embedding {
	seen := map[string]bool{}
	var out []*Embedding
	for _, e := range group {
		k := ""
		for _, n := range e.NodeSet() {
			k += olditoa(n) + ","
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, e)
	}
	return out
}

func olditoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	neg := n < 0
	if neg {
		n = -n
	}
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func oldExactDisjoint(group []*Embedding) []*Embedding {
	n := len(group)
	if n == 0 {
		return nil
	}
	if n == 1 {
		return group
	}
	inv := make([]bitset, n)
	for i := range inv {
		inv[i] = newBitset(n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !group[i].Overlaps(group[j]) {
				inv[i].set(j)
				inv[j].set(i)
			}
		}
	}
	idx := oldMaxClique(n, inv)
	sort.Ints(idx)
	out := make([]*Embedding, 0, len(idx))
	for _, i := range idx {
		out = append(out, group[i])
	}
	return out
}

func oldMaxClique(n int, adj []bitset) []int {
	var best []int
	cand := newBitset(n)
	for i := 0; i < n; i++ {
		cand.set(i)
	}
	var expand func(r []int, p bitset)
	expand = func(r []int, p bitset) {
		if p.empty() {
			if len(r) > len(best) {
				best = append([]int(nil), r...)
			}
			return
		}
		order, bound := oldColourSort(p, adj)
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			if len(r)+bound[i] <= len(best) {
				return
			}
			expand(append(r, v), p.and(adj[v]))
			p.clear(v)
		}
	}
	expand(nil, cand)
	return best
}

func oldColourSort(p bitset, adj []bitset) (order []int, bound []int) {
	total := p.count()
	remaining := p.clone()
	colour := 0
	for len(order) < total {
		colour++
		avail := remaining.clone()
		for !avail.empty() {
			v := avail.first()
			order = append(order, v)
			bound = append(bound, colour)
			remaining.clear(v)
			avail.clear(v)
			for i := range avail {
				avail[i] &^= adj[v][i]
			}
		}
	}
	return order, bound
}

func oldGreedyDisjoint(group []*Embedding) []*Embedding {
	type item struct {
		e          *Embedding
		maxN, minN int
	}
	items := make([]item, len(group))
	for i, e := range group {
		ns := e.NodeSet()
		items[i] = item{e: e, minN: ns[0], maxN: ns[len(ns)-1]}
	}
	sort.Slice(items, func(a, b int) bool {
		if items[a].maxN != items[b].maxN {
			return items[a].maxN < items[b].maxN
		}
		return items[a].minN < items[b].minN
	})
	var out []*Embedding
	for _, it := range items {
		ok := true
		for _, chosen := range out {
			if it.e.Overlaps(chosen) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, it.e)
		}
	}
	return out
}
