// Package mining implements frequent-subgraph mining on directed labeled
// multigraphs: DgSpan, a directed-graph extension of gSpan (Yan & Han,
// ICDM 2002), and Edgar, the paper's embedding-based extension that counts
// non-overlapping embeddings via maximum independent sets in a collision
// graph and applies PA-specific pruning (paper §3.3–3.5).
package mining

import "sort"

// Graph is a directed labeled multigraph, the miner's input. For
// procedural abstraction a Graph is the dependence graph of one basic
// block: node labels are canonical instruction texts, edge labels encode
// the dependence kind and register.
type Graph struct {
	ID     int
	Labels []string
	Edges  []GEdge

	adj [][]half // built lazily by Freeze
}

// GEdge is one directed edge.
type GEdge struct {
	From, To int
	Label    string
}

// half is one adjacency entry: the edge seen from one endpoint.
type half struct {
	other int
	eid   int
	out   bool // true when the edge leaves this node
	label string
}

// Freeze builds adjacency structures; it must be called (once) before
// mining. Mining never mutates the graph afterwards.
func (g *Graph) Freeze() {
	g.adj = make([][]half, len(g.Labels))
	for i, e := range g.Edges {
		g.adj[e.From] = append(g.adj[e.From], half{other: e.To, eid: i, out: true, label: e.Label})
		g.adj[e.To] = append(g.adj[e.To], half{other: e.From, eid: i, out: false, label: e.Label})
	}
	// Deterministic order regardless of construction order.
	for _, hs := range g.adj {
		sort.Slice(hs, func(a, b int) bool {
			if hs[a].eid != hs[b].eid {
				return hs[a].eid < hs[b].eid
			}
			return hs[a].out && !hs[b].out
		})
	}
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.Labels) }

// lgraph is one input graph with its half-edge ids: every half (an
// edge seen from one endpoint) gets a dense id for its (direction, edge
// label, far-node label) triple, so extension grouping keys on integers
// instead of strings. Ids are exact — equal ids mean equal triples — and
// scoped to the graphIndex that assigned them.
type lgraph struct {
	*Graph
	hid []uint32 // by halfSlot(eid, out)
}

// halfSlot is the hid index of edge eid seen from its source (out) or
// its target.
func halfSlot(eid int, out bool) int {
	if out {
		return 2 * eid
	}
	return 2*eid + 1
}

// graphIndex is one Mine call's view of its input: graphs by ID plus
// their half-id side tables. The interning tables live and die with the
// call, so nothing process-global grows in a long-running service.
type graphIndex struct {
	byID map[int]*lgraph
}

// newGraphIndex freezes the graphs (where needed) and assigns half ids.
// Node and edge labels are interned into separate dense spaces first, so
// the triples key on integers. There are at most two half ids per input
// edge, so no label count can overflow them: 2^32 ids would take 2^31
// edges, over 64 GiB of GEdge values.
func newGraphIndex(graphs []*Graph) *graphIndex {
	ix := &graphIndex{byID: make(map[int]*lgraph, len(graphs))}
	type triple struct {
		edge, far uint32
		out       bool
	}
	nodeIDs, edgeIDs := map[string]uint32{}, map[string]uint32{}
	halfIDs := map[triple]uint32{}
	var nodeLab []uint32
	for _, g := range graphs {
		if g.adj == nil {
			g.Freeze()
		}
		nodeLab = nodeLab[:0]
		for _, l := range g.Labels {
			nodeLab = append(nodeLab, intern(nodeIDs, l))
		}
		lg := &lgraph{Graph: g, hid: make([]uint32, 2*len(g.Edges))}
		for i, e := range g.Edges {
			el := intern(edgeIDs, e.Label)
			lg.hid[halfSlot(i, true)] = intern(halfIDs, triple{el, nodeLab[e.To], true})
			lg.hid[halfSlot(i, false)] = intern(halfIDs, triple{el, nodeLab[e.From], false})
		}
		ix.byID[g.ID] = lg
	}
	return ix
}

// intern returns k's dense id in ids, assigning the next one if new.
func intern[K comparable](ids map[K]uint32, k K) uint32 {
	id, ok := ids[k]
	if !ok {
		id = uint32(len(ids))
		ids[k] = id
	}
	return id
}

// get returns the indexed graph with the given ID (nil when unknown).
func (ix *graphIndex) get(id int) *lgraph {
	return ix.byID[id]
}

// graph returns the plain graph with the given ID (nil when unknown).
func (ix *graphIndex) graph(id int) *Graph {
	if lg := ix.get(id); lg != nil {
		return lg.Graph
	}
	return nil
}
