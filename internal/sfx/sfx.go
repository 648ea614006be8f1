// Package sfx is the traditional sequence-based procedural-abstraction
// baseline the paper compares against (Fraser/Myers/Wendt's suffix-trie
// approach refined by Debray et al.'s fingerprinting): repeated identical
// instruction sequences in the linear order of each basic block,
// extracted with the same back end as graph-based PA. It is blind to
// instruction reordering — the weakness graph-based PA removes (paper §1).
package sfx

import (
	"graphpa/internal/cfg"
	"graphpa/internal/dfg"
	"graphpa/internal/pa"
)

// Miner implements pa.Miner using repeated-sequence detection. It keeps
// no mining state of its own, so it needs nothing from pa.Options' private
// incremental hooks: the driver-level incremental loop (dirty-function
// re-splitting, cached dependence graphs) already
// covers everything this miner consumes, and the sequence scan itself is
// cheap enough to rerun in full every round.
type Miner struct{}

// Name implements pa.Miner.
func (m *Miner) Name() string { return "sfx" }

// FindCandidates implements pa.Miner.
func (m *Miner) FindCandidates(view *cfg.Program, graphs []*dfg.Graph, opts pa.Options) []*pa.Candidate {
	return pa.ScanSequences(graphs, opts, false)
}
