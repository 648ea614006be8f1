package pa

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"graphpa/internal/cfg"
	"graphpa/internal/dfg"
	"graphpa/internal/mining"
)

// footprintProbe runs a graph miner inside the real driver and records,
// per round, the footprint of every visited pattern: the set of (block,
// node set) pairs over its embedding rows.
type footprintProbe struct {
	*GraphMiner
	t      *testing.T
	name   string
	visits []int
}

func (o *footprintProbe) FindCandidates(view *cfg.Program, graphs []*dfg.Graph, opts Options) []*Candidate {
	round := len(o.visits) + 1
	seen := map[string]string{} // footprint -> code of its first visit
	visits := 0
	tap := func(_ *search, p *mining.Pattern) {
		visits++
		rows := make([]string, p.Embeddings.Len())
		for i := range rows {
			nodes := slices.Clone(p.Embeddings.Nodes(i))
			slices.Sort(nodes)
			rows[i] = fmt.Sprintf("%d:%v", p.Embeddings.GID(i), nodes)
		}
		slices.Sort(rows)
		fp := strings.Join(slices.Compact(rows), " ")
		if first, ok := seen[fp]; ok {
			o.t.Errorf("%s round %d: %s and %s share the footprint %s", o.name, round, first, p.Code, fp)
			return
		}
		seen[fp] = p.Code.String()
	}
	got := o.findCandidates(graphs, opts, tap)
	if opts.stat != nil && opts.stat.Visits != visits {
		o.t.Errorf("%s round %d: the tap saw %d visits, the round records %d", o.name, round, visits, opts.stat.Visits)
	}
	o.visits = append(o.visits, visits)
	return got
}

// TestVisitsEqualFootprints holds the induced walk to visiting each
// fragment once: on every benchmark's fixpoint under edgar, edgar-canon
// and dgspan, no two patterns a round visits cover the same node sets of
// the same blocks, so a round's visits equal its distinct footprints.
// sha's round 2 is pinned at 577 visits under edgar and 477 under
// dgspan; the edge walk the induced walk replaced visited 27,074 and
// 26,974 patterns there.
func TestVisitsEqualFootprints(t *testing.T) {
	pins := map[string]int{"sha/edgar": 577, "sha/dgspan": 477}
	for _, name := range benchProgramNames {
		for _, m := range []*GraphMiner{{Embedding: true}, {Embedding: true, CanonicalMatch: true}, {}} {
			o := &footprintProbe{GraphMiner: m, t: t, name: name + "/" + m.Name()}
			res := Optimize(benchProgram(t, name), o, Options{})
			for _, rs := range res.RoundStats {
				if rs.Truncated {
					t.Errorf("%s round %d stopped at the pattern budget", o.name, rs.Round)
				}
			}
			t.Logf("%s: visits by round %v", o.name, o.visits)
			if want, ok := pins[o.name]; ok && (len(o.visits) < 2 || o.visits[1] != want) {
				t.Errorf("%s: visits by round %v, want %d in round 2", o.name, o.visits, want)
			}
		}
	}
}
