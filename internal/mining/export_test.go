package mining

import "strconv"

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
// code extended by each group's node step, in step order.
func (p *GroupProbe) Children(code Code, set *EmbSet) []Code {
	var out []Code
	for _, g := range p.mn.extendGroups(code, set) {
		out = append(out, append(code[:len(code):len(code)], g.step()...))
	}
	return out
}

// SetChildHook makes check see every minimality verdict the lattice walk
// reaches: the parent code, the tuples the child appends (one edge step,
// or a node step's forward and backward tuples) and the verdict (nil
// removes it). No walk may run while it changes.
func SetChildHook(check func(code Code, step []Tuple, minimal bool)) {
	if check == nil {
		childHook = nil
		return
	}
	childHook = func(_ *miner, code Code, step []Tuple, minimal bool) { check(code, step, minimal) }
}

// RandomDAGSets is randomDAGSets (property_test.go).
var RandomDAGSets = randomDAGSets

// Key returns a map key identifying the code for the tests: an injective
// byte encoding (String is the readable form).
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
