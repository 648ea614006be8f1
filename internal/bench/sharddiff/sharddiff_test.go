// Package sharddiff holds the job-sharding differential over the full
// benchmark suite: pad shards a corpus across concurrent jobs, one
// serial mine per core, and that may change when each program's mine
// runs, never what it produces. It lives outside internal/bench on
// purpose: the differential optimizes every benchmark twice, and
// internal/bench already runs close to Go's default per-package test
// timeout on a 1-core host.
package sharddiff

// The shard differential: every benchmark is optimized alone, one after
// another, and then all of them through a pool of concurrent workers,
// one per core and at least two, drawing jobs from one queue as pad's
// job pool does. The concurrent images must be
// byte-identical to the lone ones, hash included, with the same savings
// and round counts.

import (
	"sync"
	"testing"

	"graphpa/internal/bench"
	"graphpa/internal/core"
	"graphpa/internal/link"
	"graphpa/internal/pa"
	"graphpa/internal/par"
)

// maxPatterns mirrors internal/bench's deterministic cap: large enough
// that rijndael and sha truncate non-trivially, small enough for CI.
const maxPatterns = 30000

func sameImage(a, b *link.Image) bool {
	if a.TextWords != b.TextWords || a.Entry != b.Entry || len(a.Words) != len(b.Words) {
		return false
	}
	for i := range a.Words {
		if a.Words[i] != b.Words[i] {
			return false
		}
	}
	return true
}

// outcome is one benchmark's optimization.
type outcome struct {
	res *pa.Result
	img *link.Image
	err error
}

func optimize(w *bench.Workload, miner string) outcome {
	m, err := core.MinerByName(miner)
	if err != nil {
		return outcome{err: err}
	}
	res, img, err := core.Optimize(w.Image, m, pa.Options{MaxPatterns: maxPatterns})
	return outcome{res, img, err}
}

func TestShardDifferential(t *testing.T) {
	names := bench.Names
	if testing.Short() {
		names = []string{"crc", "search"}
	}
	type job struct {
		name, miner string
		w           *bench.Workload
	}
	var jobs []job
	for _, n := range names {
		w, err := bench.Build(n, bench.DefaultCodegen())
		if err != nil {
			t.Fatal(err)
		}
		for _, miner := range []string{"edgar", "dgspan"} {
			jobs = append(jobs, job{n, miner, w})
		}
	}

	alone := make([]outcome, len(jobs))
	for i, j := range jobs {
		alone[i] = optimize(j.w, j.miner)
		if alone[i].err != nil {
			t.Fatalf("%s/%s alone: %v", j.name, j.miner, alone[i].err)
		}
	}

	together := make([]outcome, len(jobs))
	queue := make(chan int, len(jobs))
	for i := range jobs {
		queue <- i
	}
	close(queue)
	var wg sync.WaitGroup
	for range max(2, par.Workers(0)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				together[i] = optimize(jobs[i].w, jobs[i].miner)
			}
		}()
	}
	wg.Wait()

	for i, j := range jobs {
		ref, got := alone[i], together[i]
		if got.err != nil {
			t.Errorf("%s/%s concurrent: %v", j.name, j.miner, got.err)
			continue
		}
		if !sameImage(got.img, ref.img) || got.img.Hash() != ref.img.Hash() {
			t.Errorf("%s/%s: concurrent image hash %s differs from the lone run's %s",
				j.name, j.miner, got.img.Hash(), ref.img.Hash())
			continue
		}
		if got.res.Saved() != ref.res.Saved() || got.res.Rounds != ref.res.Rounds {
			t.Errorf("%s/%s: concurrent run saved %d in %d rounds, lone %d in %d",
				j.name, j.miner, got.res.Saved(), got.res.Rounds, ref.res.Saved(), ref.res.Rounds)
		}
	}
}
