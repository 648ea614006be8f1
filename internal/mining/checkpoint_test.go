package mining

import "testing"

// scriptCk is a scripted Checkpointer: it records every subtree of one
// walk, then replays chosen root codes on a second walk.
type scriptCk struct {
	record map[string]*scriptRec // by Code.Key()
	replay map[string]bool       // keys FastForward may replay
	open   []*scriptRec
	ffs    int
}

type scriptRec struct {
	key        string
	visits     int
	nonMinimal int
	truncated  bool
}

func (ck *scriptCk) FastForward(p *Pattern, remaining int) (int, int, bool) {
	rec := ck.record[p.Code.Key()]
	if rec == nil || rec.truncated || !ck.replay[rec.key] {
		return 0, 0, false
	}
	if remaining >= 0 && rec.visits > remaining {
		return 0, 0, false
	}
	ck.ffs++
	return rec.visits, rec.nonMinimal, true
}

func (ck *scriptCk) Begin(p *Pattern) any {
	rec := &scriptRec{key: p.Code.Key()}
	ck.open = append(ck.open, rec)
	return rec
}

func (ck *scriptCk) End(token any, visits, nonMinimal int, truncated bool) {
	rec := token.(*scriptRec)
	if ck.open[len(ck.open)-1] != rec {
		panic("Begin/End tokens did not nest LIFO")
	}
	ck.open = ck.open[:len(ck.open)-1]
	rec.visits, rec.nonMinimal = visits, nonMinimal
	rec.truncated = truncated
	if ck.record[rec.key] == nil {
		ck.record[rec.key] = rec
	}
}

func ckGraphs() []*Graph {
	return []*Graph{
		chain(0, "e", "a", "b", "c", "d"),
		chain(1, "e", "a", "b", "c", "d"),
		chain(2, "e", "b", "c", "d"),
	}
}

func visitKeys(graphs []*Graph, cfg Config) []string {
	var keys []string
	Mine(graphs, cfg, func(p *Pattern) {
		keys = append(keys, p.Code.Key())
	})
	return keys
}

// A walk that fast-forwards every recorded subtree must charge exactly
// the visits and non-minimal children the plain walk would have spent,
// and the patterns it still visits live must be a prefix-consistent
// subsequence of the plain walk.
func TestCheckpointReplayPreservesVisitAccounting(t *testing.T) {
	nonMinimal := -1
	cfg := Config{MinSupport: 2, MaxNodes: 4, NoteNonMinimal: func(n int) { nonMinimal = n }}
	plain := visitKeys(ckGraphs(), cfg)
	if len(plain) == 0 {
		t.Fatal("no patterns mined")
	}
	plainNonMinimal := nonMinimal
	if plainNonMinimal <= 0 {
		t.Fatalf("plain walk rejected %d non-minimal children; the fixture needs some", plainNonMinimal)
	}

	ck := &scriptCk{record: map[string]*scriptRec{}, replay: map[string]bool{}}
	cfg.Checkpoint = ck
	rec := visitKeys(ckGraphs(), cfg)
	if len(rec) != len(plain) {
		t.Fatalf("recording walk visited %d patterns, plain %d", len(rec), len(plain))
	}
	if len(ck.open) != 0 {
		t.Fatalf("%d records left open after the walk", len(ck.open))
	}

	// Root subtree totals must sum to the whole walk: every visit is in
	// exactly one single-edge root's subtree.
	rootSum := 0
	for key, r := range ck.record {
		if r.truncated {
			t.Fatalf("untruncated walk left a truncated record for %s", key)
		}
		if len(keyCodeEdges(t, rec, key)) == 1 {
			rootSum += r.visits
		}
	}
	if rootSum != len(plain) {
		t.Fatalf("root subtree visits sum to %d, walk visited %d", rootSum, len(plain))
	}

	// Replay everything: no live visits remain, and the checkpointer is
	// consulted for each root exactly once.
	for k := range ck.record {
		ck.replay[k] = true
	}
	replayed := visitKeys(ckGraphs(), cfg)
	if len(replayed) != 0 {
		t.Fatalf("full replay still visited %d patterns live", len(replayed))
	}
	if nonMinimal != plainNonMinimal {
		t.Fatalf("full replay charged %d non-minimal children, plain walk %d", nonMinimal, plainNonMinimal)
	}

	// With a budget smaller than a subtree, FastForward must be refused
	// (the scripted implementation obeys the contract) and the walk must
	// truncate at exactly the budget, like the plain walk does.
	cfg.MaxPatterns = 2
	budgeted := visitKeys(ckGraphs(), cfg)
	cfgPlain := Config{MinSupport: 2, MaxNodes: 4, MaxPatterns: 2}
	plainBudget := visitKeys(ckGraphs(), cfgPlain)
	if len(budgeted) != len(plainBudget) {
		t.Fatalf("budgeted replay visited %d, plain budgeted walk %d", len(budgeted), len(plainBudget))
	}
	for i := range budgeted {
		if budgeted[i] != plainBudget[i] {
			t.Fatalf("budgeted visit %d: %q vs %q", i, budgeted[i], plainBudget[i])
		}
	}
}

// keyCodeEdges recovers the edge count of a recorded key by finding the
// pattern with that key in the recorded visit order.
func keyCodeEdges(t *testing.T, keys []string, key string) []byte {
	t.Helper()
	for _, k := range keys {
		if k == key {
			// Count tuple separators (0x01 terminates each tuple).
			var seps []byte
			for i := 0; i < len(k); i++ {
				if k[i] == 1 {
					seps = append(seps, 1)
				}
			}
			return seps
		}
	}
	t.Fatalf("recorded key never visited")
	return nil
}
