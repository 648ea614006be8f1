package mining

// The walk itself is serial; the parallelism is across independent
// Mine calls, one per job, as pad's job pool runs them. These tests run
// many mines side by side and require each to reproduce its own serial
// trace, so package-level state shared between walks (the pooled
// minimality scratch) cannot leak from one walk into another. Run them
// under -race to check the sharing too.

import (
	"fmt"
	"sort"
	"sync"
	"testing"
)

// mineSideBySide runs every job at once, copies times each, and
// returns the traces indexed like jobs. Each job builds its own inputs,
// as each pad job compiles its own graphs.
func mineSideBySide(jobs []func() []string, copies int) [][][]string {
	out := make([][][]string, len(jobs))
	for i := range out {
		out[i] = make([][]string, copies)
	}
	var wg sync.WaitGroup
	for i, job := range jobs {
		for c := 0; c < copies; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[i][c] = job()
			}()
		}
	}
	wg.Wait()
	return out
}

// TestParallelMatchesSerial: mines running side by side must each
// reproduce the serial visit sequence exactly — same patterns, same
// order, same supports and embeddings — across graph sets, support
// modes, size caps and both sibling orders.
func TestParallelMatchesSerial(t *testing.T) {
	configs := map[string]Config{
		"graph-support":     {MinSupport: 2},
		"embedding-support": {MinSupport: 2, EmbeddingSupport: true},
		"capped":            {MinSupport: 2, EmbeddingSupport: true, MaxNodes: 3},
		"greedy-mis":        {MinSupport: 2, EmbeddingSupport: true, GreedyMIS: true},
		"lexicographic":     {MinSupport: 2, EmbeddingSupport: true, Lexicographic: true},
	}
	var names []string
	var jobs []func() []string
	var serial [][]string
	for gname := range testGraphSets() {
		for cname, cfg := range configs {
			names = append(names, gname+"/"+cname)
			jobs = append(jobs, func() []string { return mineTrace(testGraphSets()[gname], cfg) })
			serial = append(serial, mineTrace(testGraphSets()[gname], cfg))
		}
	}
	for i, runs := range mineSideBySide(jobs, 3) {
		if len(serial[i]) == 0 {
			t.Fatalf("%s: serial mine visited nothing", names[i])
		}
		for c, got := range runs {
			assertSameTrace(t, fmt.Sprintf("%s/copy%d", names[i], c), serial[i], got)
		}
	}
}

// TestParallelMaxPatternsTruncation: the MaxPatterns budget must cut
// each of several side-by-side walks at exactly its serial truncation
// point.
func TestParallelMaxPatternsTruncation(t *testing.T) {
	budgets := []int{1, 3, 7, 20}
	run := func(budget int) []string {
		cfg := Config{MinSupport: 2, EmbeddingSupport: true, MaxPatterns: budget}
		return mineTrace(testGraphSets()["replicated"], cfg)
	}
	full := mineTrace(testGraphSets()["replicated"], Config{MinSupport: 2, EmbeddingSupport: true})

	var jobs []func() []string
	var serial [][]string
	for _, budget := range budgets {
		tr := run(budget)
		if len(tr) != budget || budget >= len(full) {
			t.Fatalf("budget=%d: serial walk visited %d of %d patterns; want a cut at the budget",
				budget, len(tr), len(full))
		}
		serial = append(serial, tr)
		jobs = append(jobs, func() []string { return run(budget) })
	}
	for i, runs := range mineSideBySide(jobs, 3) {
		for c, got := range runs {
			assertSameTrace(t, fmt.Sprintf("budget=%d/copy%d", budgets[i], c), serial[i], got)
		}
	}
}

// incumbent is a monotone bound owned by one walk's visitor, the shape
// of the PA search's best-benefit-so-far.
type incumbent struct{ b int }

func (s *incumbent) raise(v int) {
	if v > s.b {
		s.b = v
	}
}

// TestParallelStatefulIncumbent mimics the PA search: the visitor moves
// an incumbent bound that PruneSubtree, ViableCount and PruneChild
// consult, so the output depends on visit order. Each policy gives its
// walk its own incumbent; side by side with the others, every walk
// must still match its serial run bit for bit. The child-pruning
// policies also drive the walk's reuse of rejected children's storage.
func TestParallelStatefulIncumbent(t *testing.T) {
	policies := map[string]func(s *incumbent, cfg *Config){
		"subtree-and-count": func(s *incumbent, cfg *Config) {
			cfg.PruneSubtree = func(p *Pattern) bool { return s.b > 3*p.Support }
			cfg.ViableCount = func(c int) bool { return s.b <= 4*c }
		},
		"child-bound": func(s *incumbent, cfg *Config) {
			cfg.PruneChild = func(_ *EmbSet, bound int) bool { return 2*bound < s.b }
		},
		"child-set": func(s *incumbent, cfg *Config) {
			cfg.PruneChild = func(set *EmbSet, _ int) bool { return set.Len()+s.b%3 < 4 }
		},
		"all-lexicographic": func(s *incumbent, cfg *Config) {
			cfg.Lexicographic = true
			cfg.PruneSubtree = func(p *Pattern) bool { return s.b > 3*p.Support }
			cfg.PruneChild = func(_ *EmbSet, bound int) bool { return 2*bound < s.b }
		},
	}
	run := func(policy func(*incumbent, *Config)) []string {
		s := &incumbent{}
		cfg := Config{MinSupport: 2, EmbeddingSupport: true}
		policy(s, &cfg)
		var out []string
		Mine(testGraphSets()["replicated"], cfg, func(p *Pattern) {
			out = append(out, trace(p))
			s.raise(p.Support + p.Code.NumNodes())
		})
		return out
	}

	var names []string
	for name := range policies {
		names = append(names, name)
	}
	sort.Strings(names)
	var jobs []func() []string
	var serial [][]string
	for _, name := range names {
		tr := run(policies[name])
		if len(tr) == 0 {
			t.Fatalf("%s: serial stateful search mined nothing", name)
		}
		serial = append(serial, tr)
		jobs = append(jobs, func() []string { return run(policies[name]) })
	}
	for i, runs := range mineSideBySide(jobs, 3) {
		for c, got := range runs {
			assertSameTrace(t, fmt.Sprintf("%s/copy%d", names[i], c), serial[i], got)
		}
	}
}

// TestSpeculatorVisitObservesPatterns: a visitor may keep the patterns
// it is handed — the PA miners keep them as candidates. The walk
// reuses the storage of children it rejects, so every kept pattern
// must still render the trace it had at its visit once the walk is
// over, and no two visits may share a *Pattern. Two walks run side by
// side, each with a child-pruning policy that keeps the reuse busy.
func TestSpeculatorVisitObservesPatterns(t *testing.T) {
	walk := func() error {
		best := 0
		var kept []*Pattern
		var atVisit []string
		cfg := Config{
			MinSupport:       2,
			EmbeddingSupport: true,
			PruneChild:       func(_ *EmbSet, bound int) bool { return 2*bound < best },
		}
		Mine(testGraphSets()["replicated"], cfg, func(p *Pattern) {
			kept = append(kept, p)
			atVisit = append(atVisit, trace(p))
			best = max(best, p.Support+p.Code.NumNodes())
		})
		if len(kept) == 0 {
			return fmt.Errorf("nothing mined")
		}
		seen := map[*Pattern]bool{}
		for i, p := range kept {
			if seen[p] {
				return fmt.Errorf("visit %d repeats an earlier *Pattern", i)
			}
			seen[p] = true
			if got := trace(p); got != atVisit[i] {
				return fmt.Errorf("visit %d changed after the walk:\nat visit: %s\nafter:    %s", i, atVisit[i], got)
			}
		}
		return nil
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = walk()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("walk %d: %v", i, err)
		}
	}
}
