package mining

// Test-only hooks for the external mining_test suites, which reach the
// benchmark programs through pa — an import cycle for in-package tests.

// OldIsMinimal is the boxed reference minimality test (oldref_test.go).
var OldIsMinimal = oldIsMinimal

// GroupProbe runs the lattice walk's extension grouping over one graph
// database.
type GroupProbe struct{ mn *miner }

// NewGroupProbe indexes graphs the way Mine does; groups below
// minSupport candidates are dropped, as in the walk.
func NewGroupProbe(graphs []*Graph, minSupport int) *GroupProbe {
	return &GroupProbe{mn: &miner{cfg: Config{MinSupport: minSupport}, gx: newGraphIndex(graphs)}}
}

// Groups returns the number of extension groups of (code, set).
func (p *GroupProbe) Groups(code Code, set *EmbSet) int {
	return len(p.mn.extendGroups(code, set))
}

// Children returns the child codes the walk generates from (code, set):
// code extended by each group's tuple, in tuple order.
func (p *GroupProbe) Children(code Code, set *EmbSet) []Code {
	var out []Code
	for _, g := range p.mn.extendGroups(code, set) {
		out = append(out, append(code[:len(code):len(code)], g.t))
	}
	return out
}
