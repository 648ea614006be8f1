package mining

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// shardConfigs are the search configurations the remote-speculation
// differentials run under — the same matrix the in-process parallel
// tests use.
func shardConfigs() map[string]Config {
	return map[string]Config{
		"graph-support":     {MinSupport: 2},
		"embedding-support": {MinSupport: 2, EmbeddingSupport: true},
		"capped":            {MinSupport: 2, EmbeddingSupport: true, MaxNodes: 3},
		"greedy-mis":        {MinSupport: 2, EmbeddingSupport: true, GreedyMIS: true},
	}
}

// newTestShard stands up one in-process "shard worker": the graphs go
// through the full wire round trip (EncodeGraphs → EncodeShardWalk →
// DecodeShardWalk), so the session mines decoded copies exactly as a
// remote process would.
func newTestShard(t *testing.T, graphs []*Graph, cfg Config, floor int, ub []int) *SpecSession {
	t.Helper()
	sc := SpecConfig{
		MinSupport:       cfg.MinSupport,
		MaxNodes:         cfg.MaxNodes,
		MISExactLimit:    cfg.MISExactLimit,
		MaxPatterns:      cfg.MaxPatterns,
		EmbeddingSupport: cfg.EmbeddingSupport,
		GreedyMIS:        cfg.GreedyMIS,
		Lexicographic:    cfg.Lexicographic,
		Floor:            floor,
		UB:               ub,
	}
	dsc, dgs, err := DecodeShardWalk(EncodeShardWalk(sc, EncodeGraphs(graphs)))
	if err != nil {
		t.Fatalf("shard walk round trip: %v", err)
	}
	if fmt.Sprintf("%+v", dsc) != fmt.Sprintf("%+v", sc) {
		t.Fatalf("SpecConfig round trip: got %+v want %+v", dsc, sc)
	}
	return NewSpecSession(dgs, sc)
}

// TestGraphsCodecRoundTrip: the graph wire format must reproduce IDs,
// labels and edges exactly, re-encode to identical bytes, and yield the
// same canonical seed list — the invariant the consistent shard
// assignment rests on.
func TestGraphsCodecRoundTrip(t *testing.T) {
	for name, graphs := range testGraphSets() {
		enc := EncodeGraphs(graphs)
		dec, err := DecodeGraphs(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if len(dec) != len(graphs) {
			t.Fatalf("%s: decoded %d graphs, want %d", name, len(dec), len(graphs))
		}
		for i, g := range graphs {
			d := dec[i]
			if d.ID != g.ID || fmt.Sprint(d.Labels) != fmt.Sprint(g.Labels) || fmt.Sprint(d.Edges) != fmt.Sprint(g.Edges) {
				t.Fatalf("%s: graph %d differs after round trip", name, i)
			}
		}
		if !bytes.Equal(EncodeGraphs(dec), enc) {
			t.Fatalf("%s: re-encode is not byte-identical", name)
		}
		a, b := seedPatterns(graphs), seedPatterns(dec)
		if len(a) != len(b) {
			t.Fatalf("%s: seed counts differ: %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if compareTuples(&a[i].t, &b[i].t) != 0 || !a[i].set.EqualData(b[i].set) {
				t.Fatalf("%s: seed %d differs after round trip", name, i)
			}
		}
	}
}

// TestSpecTreeCodecRoundTrip: a recorded subtree must survive
// encode → decode → re-encode byte-identically.
func TestSpecTreeCodecRoundTrip(t *testing.T) {
	graphs := testGraphSets()["running-example"]
	for cname, cfg := range shardConfigs() {
		sess := newTestShard(t, graphs, cfg, 0, nil)
		roots := seedPatterns(graphs)
		byID := map[int]*Graph{}
		for _, g := range graphs {
			byID[g.ID] = g
		}
		graphOf := func(id int) *Graph { return byID[id] }
		for i := range roots {
			enc, err := sess.MineSeed(context.Background(), i)
			if err != nil {
				t.Fatalf("%s: MineSeed(%d): %v", cname, i, err)
			}
			root, err := decodeSpecTree(enc, Code{roots[i].t}, roots[i].set, graphOf)
			if err != nil {
				t.Fatalf("%s: decode seed %d: %v", cname, i, err)
			}
			if !bytes.Equal(encodeSpecTree(root), enc) {
				t.Fatalf("%s: seed %d re-encode is not byte-identical", cname, i)
			}
		}
	}
}

// TestRemoteSpecMatchesSerial: a walk whose speculation is sourced from
// a shard session over wire-round-tripped graphs must reproduce the
// serial visit sequence exactly, at any local worker width.
func TestRemoteSpecMatchesSerial(t *testing.T) {
	for gname, graphs := range testGraphSets() {
		for cname, cfg := range shardConfigs() {
			serial := mineTrace(graphs, cfg)
			for _, workers := range []int{1, 8} {
				sess := newTestShard(t, graphs, cfg, 0, nil)
				rcfg := cfg
				rcfg.Workers = workers
				rcfg.RemoteSpec = sess.MineSeed
				got := mineTrace(graphs, rcfg)
				assertSameTrace(t, fmt.Sprintf("%s/%s/w%d", gname, cname, workers), serial, got)
				if sess.Visits() == 0 {
					t.Fatalf("%s/%s/w%d: shard session reported no speculative visits", gname, cname, workers)
				}
			}
		}
	}
}

// TestRemoteSpecTruncation: the MaxPatterns budget must cut a
// remote-speculated walk at exactly the serial truncation point, even
// though the shard spends its own speculation budget in a different
// order than local workers would.
func TestRemoteSpecTruncation(t *testing.T) {
	graphs := testGraphSets()["replicated"]
	for _, budget := range []int{1, 3, 7, 20} {
		cfg := Config{MinSupport: 2, EmbeddingSupport: true, MaxPatterns: budget}
		serial := mineTrace(graphs, cfg)
		sess := newTestShard(t, graphs, cfg, 0, nil)
		cfg.RemoteSpec = sess.MineSeed
		got := mineTrace(graphs, cfg)
		assertSameTrace(t, fmt.Sprintf("budget=%d", budget), serial, got)
	}
}

// TestRemoteSpecStatefulIncumbent mimics the PA search against a shard
// whose advisory floor is fed by gossip, stale, or absent entirely. The
// shard cannot evaluate the coordinator's pruning closures, so its
// recorded trees always differ from local speculation — replay fallback
// must absorb every gap bit-for-bit.
func TestRemoteSpecStatefulIncumbent(t *testing.T) {
	graphs := testGraphSets()["replicated"]
	run := func(remote func(*incumbent) func(ctx context.Context, seed int) ([]byte, error)) []string {
		s := &incumbent{}
		var out []string
		cfg := Config{
			MinSupport:       2,
			EmbeddingSupport: true,
			PruneSubtree:     func(p *Pattern) bool { return s.bound() > 3*p.Support },
			ViableCount:      func(c int) bool { return s.bound() <= 4*c },
		}
		if remote != nil {
			cfg.RemoteSpec = remote(s)
		}
		Mine(graphs, cfg, func(p *Pattern) {
			out = append(out, trace(p))
			s.raise(p.Support + p.Code.NumNodes())
		})
		return out
	}
	serial := run(nil)
	if len(serial) == 0 {
		t.Fatal("serial stateful search mined nothing")
	}
	remotes := map[string]func(s *incumbent) func(ctx context.Context, seed int) ([]byte, error){
		// No floor, no UB table: the shard records everything (maximum
		// wasted exploration, zero fallback).
		"no-floor": func(*incumbent) func(ctx context.Context, seed int) ([]byte, error) {
			sess := newTestShard(t, graphs, Config{MinSupport: 2, EmbeddingSupport: true}, 0, nil)
			return sess.MineSeed
		},
		// A hostile floor with a tiny UB table: the shard prunes almost
		// everything (maximum replay fallback).
		"over-prune": func(*incumbent) func(ctx context.Context, seed int) ([]byte, error) {
			sess := newTestShard(t, graphs, Config{MinSupport: 2, EmbeddingSupport: true}, 1<<30, make([]int, 64))
			return sess.MineSeed
		},
		// Live gossip: every seed request first pushes the coordinator's
		// current incumbent, so the shard prunes against stale-but-real
		// bounds exactly as the distributed path does.
		"gossip": func(s *incumbent) func(ctx context.Context, seed int) ([]byte, error) {
			ub := make([]int, 256)
			for m := range ub {
				ub[m] = 4 * m // matches ViableCount's shape; PruneSubtree stays shard-blind
			}
			sess := newTestShard(t, graphs, Config{MinSupport: 2, EmbeddingSupport: true}, 0, ub)
			return func(ctx context.Context, seed int) ([]byte, error) {
				sess.SetFloor(s.bound())
				return sess.MineSeed(ctx, seed)
			}
		},
	}
	for name, remote := range remotes {
		got := run(remote)
		assertSameTrace(t, name, serial, got)
	}
}

// TestRemoteSpecFaultFallback: failing shard calls — some seeds, all
// seeds, or corrupt payloads — must degrade to local speculation with
// unchanged output, and the accounting hook must see every fallback.
func TestRemoteSpecFaultFallback(t *testing.T) {
	graphs := testGraphSets()["replicated"]
	cfg := Config{MinSupport: 2, EmbeddingSupport: true}
	serial := mineTrace(graphs, cfg)
	nseeds := len(seedPatterns(graphs))

	cases := map[string]struct {
		remote        func(sess *SpecSession) func(ctx context.Context, seed int) ([]byte, error)
		wantFallbacks int
	}{
		"every-other-seed-dies": {
			remote: func(sess *SpecSession) func(ctx context.Context, seed int) ([]byte, error) {
				return func(ctx context.Context, seed int) ([]byte, error) {
					if seed%2 == 1 {
						return nil, errors.New("shard down")
					}
					return sess.MineSeed(ctx, seed)
				}
			},
			wantFallbacks: nseeds / 2,
		},
		"all-seeds-die": {
			remote: func(*SpecSession) func(ctx context.Context, seed int) ([]byte, error) {
				return func(context.Context, int) ([]byte, error) { return nil, errors.New("shard down") }
			},
			wantFallbacks: nseeds,
		},
		"corrupt-payload": {
			remote: func(sess *SpecSession) func(ctx context.Context, seed int) ([]byte, error) {
				return func(ctx context.Context, seed int) ([]byte, error) {
					data, err := sess.MineSeed(ctx, seed)
					if err != nil || len(data) < 8 {
						return data, err
					}
					return data[:len(data)/2], nil // truncate mid-tree
				}
			},
			wantFallbacks: nseeds,
		},
	}
	for name, tc := range cases {
		var mu sync.Mutex
		gotSeeds, gotTrees, gotFB := 0, 0, 0
		sess := newTestShard(t, graphs, cfg, 0, nil)
		rcfg := cfg
		rcfg.RemoteSpec = tc.remote(sess)
		rcfg.NoteRemoteSpec = func(seeds, subtrees, fallbacks int) {
			mu.Lock()
			gotSeeds, gotTrees, gotFB = seeds, subtrees, fallbacks
			mu.Unlock()
		}
		got := mineTrace(graphs, rcfg)
		assertSameTrace(t, name, serial, got)
		if gotSeeds != nseeds || gotFB != tc.wantFallbacks || gotTrees != nseeds-tc.wantFallbacks {
			t.Errorf("%s: accounting seeds=%d subtrees=%d fallbacks=%d; want %d/%d/%d",
				name, gotSeeds, gotTrees, gotFB, nseeds, nseeds-tc.wantFallbacks, tc.wantFallbacks)
		}
	}
}

// TestShardDecodeRejectsCorruption: decoding hostile bytes must fail
// with an error — never panic, never index out of range — for every
// truncation point and every single-byte corruption of valid payloads.
func TestShardDecodeRejectsCorruption(t *testing.T) {
	graphs := testGraphSets()["running-example"]
	roots := seedPatterns(graphs)
	byID := map[int]*Graph{}
	for _, g := range graphs {
		byID[g.ID] = g
	}
	graphOf := func(id int) *Graph { return byID[id] }
	sess := newTestShard(t, graphs, Config{MinSupport: 2, EmbeddingSupport: true}, 0, nil)
	tree, err := sess.MineSeed(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	genc := EncodeGraphs(graphs)
	wenc := EncodeShardWalk(SpecConfig{MinSupport: 2, EmbeddingSupport: true}, genc)

	// Truncations must always error: every payload length is implied by
	// its contents.
	for n := 0; n < len(tree); n++ {
		if _, err := decodeSpecTree(tree[:n], Code{roots[0].t}, roots[0].set, graphOf); err == nil {
			t.Fatalf("spec tree truncated to %d bytes decoded without error", n)
		}
	}
	for n := 0; n < len(genc); n++ {
		if _, err := DecodeGraphs(genc[:n]); err == nil {
			t.Fatalf("graphs truncated to %d bytes decoded without error", n)
		}
	}
	for n := 0; n < len(wenc); n++ {
		if _, _, err := DecodeShardWalk(wenc[:n]); err == nil {
			t.Fatalf("walk truncated to %d bytes decoded without error", n)
		}
	}
	// Bit flips may decode to a different-but-well-formed payload (the
	// trust model leaves semantics to replay); the requirement here is
	// only that they never panic.
	for i := range tree {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), tree...)
			mut[i] ^= flip
			decodeSpecTree(mut, Code{roots[0].t}, roots[0].set, graphOf)
		}
	}
	for i := range wenc {
		mut := append([]byte(nil), wenc...)
		mut[i] ^= 0xff
		DecodeShardWalk(mut)
	}
}

// TestSpecSessionFloor: floor pushes must be monotone — stale values
// are rejected and reported as such.
func TestSpecSessionFloor(t *testing.T) {
	sess := newTestShard(t, testGraphSets()["chains"], Config{MinSupport: 2}, 10, nil)
	if sess.SetFloor(5) {
		t.Error("stale floor push (5 over 10) reported as applied")
	}
	if !sess.SetFloor(20) {
		t.Error("raising floor push (20 over 10) reported as stale")
	}
	if sess.SetFloor(20) {
		t.Error("repeat floor push reported as applied")
	}
	if sess.NumSeeds() == 0 {
		t.Error("session reports no seeds")
	}
	if _, err := sess.MineSeed(context.Background(), -1); err == nil {
		t.Error("negative seed index accepted")
	}
	if _, err := sess.MineSeed(context.Background(), sess.NumSeeds()); err == nil {
		t.Error("out-of-range seed index accepted")
	}
}
