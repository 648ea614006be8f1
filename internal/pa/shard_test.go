package pa

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"graphpa/internal/mining"
)

// memDialer is an in-process ShardDialer: each "shard" is a
// mining.SpecSession over its own decode of the walk request, so the
// payloads cross the real wire codec even though no sockets are
// involved. Fault injection mirrors what the HTTP pool sees — a dialer
// that cannot reach any shard, or a shard that dies mid-walk.
type memDialer struct {
	n         int
	failDial  bool
	killShard int   // shard index to kill mid-walk (-1: none)
	killAfter int64 // ...after this many successful Speculate calls on it

	seeds     atomic.Int64
	lastWalk  atomic.Pointer[memWalk]
	walkOpens atomic.Int64
}

func (d *memDialer) NumShards() int { return d.n }

func (d *memDialer) NewWalk(ctx context.Context, req []byte) (ShardWalk, error) {
	if d.failDial {
		return nil, errors.New("memDialer: no shards reachable")
	}
	w := &memWalk{d: d}
	for i := 0; i < d.n; i++ {
		sc, graphs, err := mining.DecodeShardWalk(req)
		if err != nil {
			return nil, err
		}
		w.shards = append(w.shards, &memShard{sess: mining.NewSpecSession(graphs, sc)})
	}
	d.walkOpens.Add(1)
	d.lastWalk.Store(w)
	return w, nil
}

type memShard struct {
	sess  *mining.SpecSession
	dead  atomic.Bool
	calls atomic.Int64
}

type memWalk struct {
	d          *memDialer
	shards     []*memShard
	broadcasts atomic.Int64
	stale      atomic.Int64
	closed     atomic.Bool
}

func (w *memWalk) Speculate(ctx context.Context, seed int) ([]byte, error) {
	w.d.seeds.Add(1)
	si := seed % len(w.shards)
	sh := w.shards[si]
	if sh.dead.Load() {
		return nil, errors.New("memWalk: shard dead")
	}
	data, err := sh.sess.MineSeed(ctx, seed)
	if err == nil && si == w.d.killShard && sh.calls.Add(1) >= w.d.killAfter {
		sh.dead.Store(true)
	}
	return data, err
}

func (w *memWalk) Broadcast(floor int) {
	w.broadcasts.Add(1)
	for _, sh := range w.shards {
		if !sh.dead.Load() && !sh.sess.SetFloor(floor) {
			w.stale.Add(1)
		}
	}
}

func (w *memWalk) Close() ShardWalkStats {
	w.closed.Store(true)
	var st ShardWalkStats
	st.Broadcasts = int(w.broadcasts.Load())
	for _, sh := range w.shards {
		st.SpecVisits += sh.sess.Visits()
	}
	return st
}

// shardStats sums the shard counters across a Result's rounds.
func shardStats(res *Result) (seeds, subtrees, fallbacks int) {
	for _, rs := range res.RoundStats {
		seeds += rs.ShardSeeds
		subtrees += rs.ShardSubtrees
		fallbacks += rs.ShardFallbacks
	}
	return
}

// TestShardedResultIdentical: a run whose speculation is distributed
// across 3 in-process shards must produce a byte-identical Result to
// the local run, at every worker width and in both driver modes, with
// an equal visit trace.
func TestShardedResultIdentical(t *testing.T) {
	srcs := map[string]string{"reorder": reorderSrc, "mixed": orderTestSrc}
	for sname, src := range srcs {
		for _, embedding := range []bool{true, false} {
			miner := &GraphMiner{Embedding: embedding}
			ref := Optimize(loadSrc(t, src), miner, Options{MaxPatterns: 10_000_000})
			want := fingerprint(ref)
			wantVisits := fmt.Sprint(visitTrace(ref))
			for _, workers := range []int{1, 8} {
				for _, noInc := range []bool{true, false} {
					name := fmt.Sprintf("%s/%s/w=%d/noinc=%v", sname, miner.Name(), workers, noInc)
					d := &memDialer{n: 3, killShard: -1}
					res := Optimize(loadSrc(t, src), miner, Options{
						Shards: d, Workers: workers, NoIncremental: noInc,
						MaxPatterns: 10_000_000,
					})
					if got := fingerprint(res); got != want {
						t.Fatalf("%s: sharded Result differs from local run\ngot:\n%s\nwant:\n%s", name, got, want)
					}
					if got := fmt.Sprint(visitTrace(res)); got != wantVisits {
						t.Fatalf("%s: sharded visit trace %v, want the local walk's %v", name, got, wantVisits)
					}
					seeds, subtrees, fallbacks := shardStats(res)
					if seeds == 0 {
						t.Fatalf("%s: no seeds were requested from the shards", name)
					}
					if subtrees+fallbacks != seeds || fallbacks != 0 {
						t.Fatalf("%s: shard accounting seeds=%d subtrees=%d fallbacks=%d; want every seed streamed",
							name, seeds, subtrees, fallbacks)
					}
					if w := d.lastWalk.Load(); w == nil || !w.closed.Load() {
						t.Fatalf("%s: walk was not closed", name)
					}
				}
			}
		}
	}
}

// TestShardedFaultDegradesGracefully: a shard dying mid-walk must cost
// replay fallbacks only — the Result stays byte-identical.
func TestShardedFaultDegradesGracefully(t *testing.T) {
	for _, embedding := range []bool{true, false} {
		miner := &GraphMiner{Embedding: embedding}
		ref := Optimize(loadSrc(t, orderTestSrc), miner, Options{MaxPatterns: 10_000_000})
		want := fingerprint(ref)
		d := &memDialer{n: 3, killShard: 1, killAfter: 1}
		res := Optimize(loadSrc(t, orderTestSrc), miner, Options{Shards: d, MaxPatterns: 10_000_000})
		if got := fingerprint(res); got != want {
			t.Fatalf("%s: Result changed after killing a shard mid-walk\ngot:\n%s\nwant:\n%s", miner.Name(), got, want)
		}
		seeds, subtrees, fallbacks := shardStats(res)
		if fallbacks == 0 {
			t.Fatalf("%s: dead shard produced no fallbacks (seeds=%d subtrees=%d)", miner.Name(), seeds, subtrees)
		}
		if subtrees+fallbacks != seeds {
			t.Fatalf("%s: shard accounting seeds=%d subtrees=%d fallbacks=%d does not add up",
				miner.Name(), seeds, subtrees, fallbacks)
		}
	}
}

// TestShardedDialFailure: when no shard is reachable the walk must run
// fully local with a byte-identical Result and zeroed shard counters.
func TestShardedDialFailure(t *testing.T) {
	miner := &GraphMiner{Embedding: true}
	ref := Optimize(loadSrc(t, orderTestSrc), miner, Options{MaxPatterns: 10_000_000})
	d := &memDialer{n: 2, killShard: -1, failDial: true}
	res := Optimize(loadSrc(t, orderTestSrc), miner, Options{Shards: d, MaxPatterns: 10_000_000})
	if got, want := fingerprint(res), fingerprint(ref); got != want {
		t.Fatalf("Result differs when the dialer fails\ngot:\n%s\nwant:\n%s", got, want)
	}
	if seeds, subtrees, fallbacks := shardStats(res); seeds != 0 || subtrees != 0 || fallbacks != 0 {
		t.Fatalf("failed dial still reported shard work: seeds=%d subtrees=%d fallbacks=%d", seeds, subtrees, fallbacks)
	}
}

// TestShardedGossipFloor: incumbent pushes must reach the sessions
// monotonically — a direct check of the Broadcast/SetFloor seam the
// timing-dependent gossip pump uses.
func TestShardedGossipFloor(t *testing.T) {
	d := &memDialer{n: 2, killShard: -1}
	miner := &GraphMiner{Embedding: true}
	prog := loadSrc(t, orderTestSrc)
	view, graphs := buildForMining(t, prog)
	cands := miner.FindCandidates(view, graphs, Options{Shards: d, MaxPatterns: 10_000_000})
	if len(cands) == 0 {
		t.Fatal("sharded FindCandidates mined nothing")
	}
	w := d.lastWalk.Load()
	if w == nil {
		t.Fatal("no walk was opened")
	}
	w.Broadcast(1 << 30)
	if w.stale.Load() != 0 {
		t.Fatalf("first huge floor push reported %d stale shard updates", w.stale.Load())
	}
	w.Broadcast(1) // strictly below: every shard must report it stale
	if got := w.stale.Load(); got != int64(d.n) {
		t.Fatalf("stale floor push applied on %d/%d shards", int64(d.n)-got, d.n)
	}
}
