package pa

// Concurrent runs: pad's job pool shards its work across jobs, one
// serial Optimize per core. Every run must be independent of the runs
// beside it — the same Result and visit trace as a lone run, whatever
// else is mining, and a run that dies must take no sibling with it.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"graphpa/internal/cfg"
	"graphpa/internal/dfg"
	"graphpa/internal/loader"
)

// concurrentRun is one job of a side-by-side batch.
type concurrentRun struct {
	name    string
	src     string
	miner   Miner
	opts    Options
	want    string // fingerprint of the lone reference run
	visits  string // visit trace of the lone reference run
	got     *Result
	err     error
	ctx     context.Context
	faulted bool
}

// runSideBySide starts every run at once and waits for all of them.
func runSideBySide(t *testing.T, runs []*concurrentRun) {
	t.Helper()
	progs := make([]*loader.Program, len(runs))
	for i, r := range runs {
		progs[i] = loadSrc(t, r.src)
	}
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := r.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			r.got, r.err = OptimizeContext(ctx, progs[i], r.miner, r.opts)
		}()
	}
	wg.Wait()
}

// TestShardedResultIdentical: runs sharded across concurrent jobs —
// both programs, both miners, the incremental driver and the rebuild
// reference, all at once and sharing one miner value per kind — must
// each produce a byte-identical Result to a lone run, with an equal
// visit trace.
func TestShardedResultIdentical(t *testing.T) {
	srcs := map[string]string{"reorder": reorderSrc, "mixed": orderTestSrc}
	var runs []*concurrentRun
	for sname, src := range srcs {
		for _, embedding := range []bool{true, false} {
			miner := &GraphMiner{Embedding: embedding}
			ref := Optimize(loadSrc(t, src), &GraphMiner{Embedding: embedding}, Options{MaxPatterns: 10_000_000})
			for _, rebuild := range []bool{true, false} {
				runs = append(runs, &concurrentRun{
					name:   fmt.Sprintf("%s/%s/rebuild=%v", sname, miner.Name(), rebuild),
					src:    src,
					miner:  miner,
					opts:   Options{MaxPatterns: 10_000_000, ref: reference{rebuild: rebuild}},
					want:   fingerprint(ref),
					visits: fmt.Sprint(visitTrace(ref)),
				})
			}
		}
	}
	runSideBySide(t, runs)
	for _, r := range runs {
		if r.err != nil {
			t.Fatalf("%s: %v", r.name, r.err)
		}
		if got := fingerprint(r.got); got != r.want {
			t.Fatalf("%s: concurrent Result differs from the lone run\ngot:\n%s\nwant:\n%s", r.name, got, r.want)
		}
		if got := fmt.Sprint(visitTrace(r.got)); got != r.visits {
			t.Fatalf("%s: concurrent visit trace %v, want the lone walk's %v", r.name, got, r.visits)
		}
	}
}

// faultMiner kills its own run: at the start of round `round` it
// cancels the run's context, then hands the round to the real miner,
// which must see the cancellation mid-walk.
type faultMiner struct {
	inner  Miner
	round  int
	cancel context.CancelFunc
	seen   int
}

func (m *faultMiner) Name() string { return m.inner.Name() }

func (m *faultMiner) FindCandidates(view *cfg.Program, graphs []*dfg.Graph, opts Options) []*Candidate {
	m.seen++
	if m.seen == m.round {
		m.cancel()
	}
	return m.inner.FindCandidates(view, graphs, opts)
}

// TestShardedFaultDegradesGracefully: a job that dies mid-run — its
// context cancelled at the start of its second mining round, while
// sibling jobs are mining the same programs — must return
// context.Canceled and no partial Result, and cost its siblings
// nothing: each stays byte-identical to a lone run.
func TestShardedFaultDegradesGracefully(t *testing.T) {
	var runs []*concurrentRun
	for _, embedding := range []bool{true, false} {
		ref := Optimize(loadSrc(t, orderTestSrc), &GraphMiner{Embedding: embedding}, Options{MaxPatterns: 10_000_000})
		if len(ref.RoundStats) < 2 {
			t.Fatalf("reference run mined %d rounds; the fault needs a second one", len(ref.RoundStats))
		}
		for i := 0; i < 2; i++ {
			runs = append(runs, &concurrentRun{
				name:   fmt.Sprintf("embedding=%v/sibling%d", embedding, i),
				src:    orderTestSrc,
				miner:  &GraphMiner{Embedding: embedding},
				opts:   Options{MaxPatterns: 10_000_000},
				want:   fingerprint(ref),
				visits: fmt.Sprint(visitTrace(ref)),
			})
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		runs = append(runs, &concurrentRun{
			name:    fmt.Sprintf("embedding=%v/faulted", embedding),
			src:     orderTestSrc,
			miner:   &faultMiner{inner: &GraphMiner{Embedding: embedding}, round: 2, cancel: cancel},
			opts:    Options{MaxPatterns: 10_000_000},
			ctx:     ctx,
			faulted: true,
		})
	}
	runSideBySide(t, runs)
	for _, r := range runs {
		if r.faulted {
			if !errors.Is(r.err, context.Canceled) || r.got != nil {
				t.Fatalf("%s: err = %v, Result %v; want context.Canceled and no Result", r.name, r.err, r.got != nil)
			}
			if m := r.miner.(*faultMiner); m.seen != 2 {
				t.Fatalf("%s: the miner ran %d rounds; want the run to stop in round 2", r.name, m.seen)
			}
			continue
		}
		if r.err != nil {
			t.Fatalf("%s: %v", r.name, r.err)
		}
		if got := fingerprint(r.got); got != r.want {
			t.Fatalf("%s: Result changed beside a dying job\ngot:\n%s\nwant:\n%s", r.name, got, r.want)
		}
		if got := fmt.Sprint(visitTrace(r.got)); got != r.visits {
			t.Fatalf("%s: visit trace %v beside a dying job, want %v", r.name, got, r.visits)
		}
	}
}
