// Package sharddiff holds the sharded-search differential over the full
// benchmark suite. Like dictdiff it lives outside internal/bench on
// purpose: the differential re-optimizes every benchmark four times
// (plain reference, 3-shard at both worker widths, 3-shard with a shard
// killed mid-run), and internal/bench already runs close to Go's default
// per-package test timeout on a 1-core host.
package sharddiff

// The shard differential: distributing the per-seed lattice speculation
// across shard sessions may change where the speculative work runs,
// never what the coordinator's replay produces. Every benchmark is
// optimized single-process and sharded over 3 in-process shards — each
// shard decoding its own copy of the walk request, so every payload
// crosses the real wire codec — and the
// sharded images must be byte-identical, hash included, at both worker
// widths. A fourth run kills one shard after its first served seed: the
// dead shard's seeds degrade to coordinator-local speculation, which
// must cost replay fallbacks only, never a byte of output.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"graphpa/internal/bench"
	"graphpa/internal/core"
	"graphpa/internal/link"
	"graphpa/internal/mining"
	"graphpa/internal/pa"
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

// shardDialer is an in-process pa.ShardDialer: each shard is a
// mining.SpecSession over its own decode of the walk request. killShard
// >= 0 injects the fault — that shard dies after killAfter served
// seeds in each walk.
type shardDialer struct {
	n         int
	killShard int
	killAfter int64
}

func (d *shardDialer) NumShards() int { return d.n }

func (d *shardDialer) NewWalk(_ context.Context, req []byte) (pa.ShardWalk, error) {
	w := &shardWalk{d: d}
	for i := 0; i < d.n; i++ {
		sc, graphs, err := mining.DecodeShardWalk(req)
		if err != nil {
			return nil, err
		}
		w.shards = append(w.shards, &shard{sess: mining.NewSpecSession(graphs, sc)})
	}
	return w, nil
}

type shard struct {
	sess  *mining.SpecSession
	dead  atomic.Bool
	calls atomic.Int64
}

type shardWalk struct {
	d          *shardDialer
	shards     []*shard
	broadcasts atomic.Int64
}

func (w *shardWalk) Speculate(ctx context.Context, seed int) ([]byte, error) {
	si := seed % len(w.shards)
	sh := w.shards[si]
	if sh.dead.Load() {
		return nil, errors.New("sharddiff: shard killed")
	}
	data, err := sh.sess.MineSeed(ctx, seed)
	if err == nil && si == w.d.killShard && sh.calls.Add(1) >= w.d.killAfter {
		sh.dead.Store(true)
	}
	return data, err
}

func (w *shardWalk) Broadcast(floor int) {
	w.broadcasts.Add(1)
	for _, sh := range w.shards {
		if !sh.dead.Load() {
			sh.sess.SetFloor(floor)
		}
	}
}

func (w *shardWalk) Close() pa.ShardWalkStats {
	var st pa.ShardWalkStats
	st.Broadcasts = int(w.broadcasts.Load())
	for _, sh := range w.shards {
		st.SpecVisits += sh.sess.Visits()
	}
	return st
}

func shardStats(r *pa.Result) (seeds, subtrees, fallbacks int) {
	for i := range r.RoundStats {
		seeds += r.RoundStats[i].ShardSeeds
		subtrees += r.RoundStats[i].ShardSubtrees
		fallbacks += r.RoundStats[i].ShardFallbacks
	}
	return
}

func TestShardDifferential(t *testing.T) {
	names := bench.Names
	if testing.Short() {
		names = []string{"crc", "search"}
	}
	m, err := core.MinerByName("edgar")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		w, err := bench.Build(n, bench.DefaultCodegen())
		if err != nil {
			t.Fatal(err)
		}
		// One plain reference run: W=8 reproduces W=1 byte-for-byte
		// (pinned by internal/bench's determinism suite), so all sharded
		// variants compare against this one.
		ref, refImg, err := core.Optimize(w.Image, m,
			pa.Options{MaxPatterns: maxPatterns, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}

		for _, workers := range []int{1, 8} {
			res, img, err := core.Optimize(w.Image, m, pa.Options{
				MaxPatterns: maxPatterns, Workers: workers,
				Shards: &shardDialer{n: 3, killShard: -1},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !sameImage(img, refImg) || img.Hash() != refImg.Hash() {
				t.Errorf("%s W=%d: 3-shard image hash %s differs from plain %s",
					n, workers, img.Hash(), refImg.Hash())
				continue
			}
			if res.Saved() != ref.Saved() || res.Rounds != ref.Rounds {
				t.Errorf("%s W=%d: sharded run saved %d in %d rounds, plain %d in %d",
					n, workers, res.Saved(), res.Rounds, ref.Saved(), ref.Rounds)
			}
			seeds, subtrees, fallbacks := shardStats(res)
			if seeds == 0 || subtrees != seeds || fallbacks != 0 {
				t.Errorf("%s W=%d: healthy shard accounting seeds=%d subtrees=%d fallbacks=%d; want every seed streamed",
					n, workers, seeds, subtrees, fallbacks)
			}
		}

		// Fault injection: shard 1 dies after its first served seed of
		// every walk. Byte-identity must survive; only the accounting moves.
		res, img, err := core.Optimize(w.Image, m, pa.Options{
			MaxPatterns: maxPatterns, Workers: 1,
			Shards: &shardDialer{n: 3, killShard: 1, killAfter: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !sameImage(img, refImg) || img.Hash() != refImg.Hash() {
			t.Errorf("%s: image hash changed after killing a shard mid-run: %s vs %s",
				n, img.Hash(), refImg.Hash())
		}
		seeds, subtrees, fallbacks := shardStats(res)
		if fallbacks == 0 {
			t.Errorf("%s: killed shard produced no fallbacks (seeds=%d)", n, seeds)
		}
		// Requests aborted by end-of-walk cancellation (rijndael's budget
		// truncation) are deliberately neither streamed nor fallbacks, so
		// the books may come up short — but never over.
		if subtrees+fallbacks > seeds {
			t.Errorf("%s: fault accounting seeds=%d subtrees=%d fallbacks=%d overcounts",
				n, seeds, subtrees, fallbacks)
		}
	}
}
