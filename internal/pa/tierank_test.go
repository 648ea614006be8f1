package pa

// Tests of the search's tie ranking: it keeps the first batch rewrite
// keys of the incumbent's tie set, and buildCandidate stops a build
// whose key cannot reach them.

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"graphpa/internal/cfg"
	"graphpa/internal/dfg"
	"graphpa/internal/mining"
)

// TestTieRankingOrderInvariant admits about 40 ties, duplicate keys among
// them, over sequence seeds at the floor, with and without a raise in
// the stream, in many orders. The ranking must keep the same candidates
// in every order, and mergeCandidates over what it keeps must equal
// mergeCandidates over every tie at the final incumbent.
func TestTieRankingOrderInvariant(t *testing.T) {
	const floor = 7
	seeds := []*Candidate{
		testCand(floor, 2, MethodCrossJump, [2]int{2, 4}, [2]int{9, 4}),
		testCand(floor, 2, MethodCall, [2]int{1, 3}, [2]int{6, 3}),
		testCand(floor, 2, MethodCall, [2]int{12, 0}, [2]int{30, 0}),
		testCand(floor-2, 2, MethodCall, [2]int{0, 0}, [2]int{5, 0}),
	}
	var ties []*Candidate
	for i := 0; i < 36; i++ {
		// 24 distinct rewrites, so a third of the ties repeat one; two
		// of them are also seeds.
		r := i % 24
		switch r {
		case 0:
			ties = append(ties, testCand(floor, 2, MethodCall, [2]int{1, 3}, [2]int{6, 3}))
		case 1:
			ties = append(ties, testCand(floor, 2, MethodCall, [2]int{12, 0}, [2]int{30, 0}))
		default:
			ties = append(ties, testCand(floor, 2, MethodCall, [2]int{r % 5, r}, [2]int{10 + r, r % 3}))
		}
	}
	raise := []*Candidate{
		testCand(floor+3, 3, MethodCall, [2]int{8, 1}, [2]int{20, 1}),
		testCand(floor+3, 3, MethodCall, [2]int{4, 2}, [2]int{11, 0}),
		testCand(floor+3, 3, MethodCall, [2]int{8, 1}, [2]int{20, 1}),
		testCand(floor+3, 3, MethodCall, [2]int{4, 2}, [2]int{17, 5}),
	}
	rng := rand.New(rand.NewSource(25))
	for _, withRaise := range []bool{false, true} {
		all := slices.Clone(ties)
		if withRaise {
			all = append(all, raise...)
		}
		// The unbounded tie set: every candidate at the final incumbent.
		top := floor
		for _, c := range all {
			top = max(top, c.Benefit)
		}
		unbounded := slices.DeleteFunc(slices.Clone(all), func(c *Candidate) bool { return c.Benefit < top })
		for _, batch := range []int{1, 2, 16} {
			want := renderCands(mergeCandidates(batch, unbounded, seeds))
			var first []string
			for perm := 0; perm < 200; perm++ {
				order := slices.Clone(all)
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				s := newSearch(false, batch)
				s.bestBen = floor
				s.seed(seeds)
				for _, c := range order {
					s.admit(c, candKey(c))
				}
				if len(s.ties) > batch {
					t.Fatalf("raise=%v batch %d: the ranking holds %d keys", withRaise, batch, len(s.ties))
				}
				mined := renderCands(s.mined())
				if perm == 0 {
					first = mined
				} else if !slices.Equal(mined, first) {
					t.Fatalf("raise=%v batch %d: order %d ranks %q, order 0 %q", withRaise, batch, perm, mined, first)
				}
				if got := renderCands(mergeCandidates(batch, s.mined(), seeds)); !slices.Equal(got, want) {
					t.Fatalf("raise=%v batch %d order %d: merged %q, want %q", withRaise, batch, perm, got, want)
				}
			}
		}
	}
}

// keyCutSrc has one three-instruction fragment in four call-safe
// functions: CallBenefit(3, 4) = 4.
const keyCutSrc = `
_start:
	bl f0
	bl f1
	bl f2
	bl f3
	swi 0
f0:
	push {r4, lr}
	add r0, r0, r1
	eor r1, r0, #7
	add r2, r2, r0
	pop {r4, pc}
f1:
	push {r4, lr}
	add r0, r0, r1
	eor r1, r0, #7
	add r2, r2, r0
	pop {r4, pc}
f2:
	push {r4, lr}
	add r0, r0, r1
	eor r1, r0, #7
	add r2, r2, r0
	pop {r4, pc}
f3:
	push {r4, lr}
	add r0, r0, r1
	eor r1, r0, #7
	add r2, r2, r0
	pop {r4, pc}
`

// TestKeyCutSparesARaise: the walk visits a pattern whose candidate key
// sorts after the bar of a full ranking. If the candidate beats the
// incumbent it must be built and admitted all the same; only once it
// can at most tie is its build cut.
func TestKeyCutSparesARaise(t *testing.T) {
	_, graphs := buildForMining(t, loadSrc(t, keyCutSrc))
	m := &GraphMiner{Embedding: true}
	byID := map[int]*dfg.Graph{}
	safe := callSafeCache{}
	var mgs []*mining.Graph
	for _, g := range graphs {
		byID[g.Block.ID] = g
		safe.get(g.Block.Fn)
		mgs = append(mgs, MiningGraph(g, false))
	}
	var best *mining.Pattern
	mining.Mine(mgs, mining.Config{MinSupport: 2, MaxNodes: 8, EmbeddingSupport: true}, func(p *mining.Pattern) {
		if p.Code.NumNodes() == 3 && len(p.Disjoint) == 4 {
			best = p
		}
	})
	if best == nil {
		t.Fatal("no three-node pattern with four disjoint embeddings")
	}
	const ben = 4 // CallBenefit(3, 4)

	// A ranking of one, full with a size-2 key: every size-3 key sorts
	// after it.
	small := testCand(ben-1, 2, MethodCall, [2]int{0, 0}, [2]int{0, 2}, [2]int{0, 4}, [2]int{0, 6}, [2]int{0, 8}, [2]int{0, 10})
	s := newSearch(false, 1)
	s.bestBen = ben - 1
	s.admit(small, candKey(small))
	bar := s.bar()
	m.visitPattern(s, byID, safe, Options{}, best)
	if s.bestBen != ben || s.keyCuts != 0 {
		t.Fatalf("incumbent %d after %d key cuts, want %d after none: the raise was cut", s.bestBen, s.keyCuts, ben)
	}
	got := s.mined()
	if len(got) != 1 || got[0].Size != 3 || candKey(got[0]) <= bar {
		t.Fatalf("ranked %q, want one size-3 candidate keyed after %q", renderCands(got), bar)
	}

	// The same pattern at an incumbent it can only tie is cut.
	tie := testCand(ben, 2, MethodCall, [2]int{0, 0}, [2]int{0, 2}, [2]int{0, 4}, [2]int{0, 6}, [2]int{0, 8}, [2]int{0, 10}, [2]int{0, 12})
	s = newSearch(false, 1)
	s.bestBen = ben
	s.admit(tie, candKey(tie))
	m.visitPattern(s, byID, safe, Options{}, best)
	if s.keyCuts != 1 || len(s.ties) != 1 || s.ties[0].cand != tie {
		t.Fatalf("%d key cuts, ranking %q: want the tie's build cut", s.keyCuts, renderCands(s.mined()))
	}
}

// tieOracle runs a graph miner inside the real driver and, in the same
// walk, a reference visitor that builds every visited pattern with no
// bar and keeps every tie. mergeCandidates over the reference tie set
// must equal what FindCandidates returns.
type tieOracle struct {
	*GraphMiner
	t      *testing.T
	name   string
	rounds []oracleRound
}

// oracleRound is one round's reference tie count and the real walk's
// key cuts.
type oracleRound struct{ ties, keyCuts int }

func (o *tieOracle) FindCandidates(view *cfg.Program, graphs []*dfg.Graph, opts Options) []*Candidate {
	byID := map[int]*dfg.Graph{}
	for _, g := range graphs {
		byID[g.Block.ID] = g
	}
	safe := callSafeCache{}
	seeds := ScanSequences(graphs, opts, !o.Embedding)
	best := 0
	for _, c := range seeds {
		best = max(best, c.Benefit)
	}
	var ties []*Candidate
	var conv convexScratch
	var walk *search
	tap := func(s *search, p *mining.Pattern) {
		walk = s
		k := p.Code.NumNodes()
		if k < 2 {
			return
		}
		sel := p.Disjoint
		if !o.Embedding {
			sel = mining.DisjointIndices(p.Embeddings, mining.Config{GreedyMIS: opts.GreedyMIS})
		}
		c, _ := o.buildCandidate(byID, p.Embeddings, sel, k, safe, best-1, "", &conv)
		if c == nil {
			return
		}
		if c.Benefit > best {
			best, ties = c.Benefit, nil
		}
		ties = append(ties, c)
	}
	got := o.findCandidates(graphs, opts, tap)
	want := mergeCandidates(opts.batch(), ties, seeds)
	round := len(o.rounds) + 1
	if g, w := renderCands(got), renderCands(want); !slices.Equal(g, w) {
		o.t.Errorf("%s round %d: FindCandidates returned\n%s\nthe unbounded tie set merges to\n%s",
			o.name, round, strings.Join(g, "\n"), strings.Join(w, "\n"))
	}
	if opts.ref.batch == 1<<30 && walk != nil {
		// A batch no tie set fills: the ranking keeps every distinct
		// mined key that no seed at the incumbent already holds, in key
		// order.
		seedKeys := map[string]bool{}
		for _, c := range seeds {
			if c.Benefit == best {
				seedKeys[candKey(c)] = true
			}
		}
		want := slices.DeleteFunc(slices.Clone(ties), func(c *Candidate) bool { return seedKeys[candKey(c)] })
		g, w := renderCands(walk.mined()), renderCands(mergeCandidates(opts.batch(), want, nil))
		if !slices.Equal(g, w) {
			o.t.Errorf("%s round %d: the ranking holds\n%s\nthe unbounded tie set sorts to\n%s",
				o.name, round, strings.Join(g, "\n"), strings.Join(w, "\n"))
		}
	}
	o.rounds = append(o.rounds, oracleRound{ties: len(ties), keyCuts: opts.stat.KeyCuts})
	return got
}

// TestTieRankingMatchesUnboundedTies is the key cut's oracle: on sha's
// first three rounds and rijndael's first two, under edgar and dgspan, at
// the default batch and with SingleExtract, the ranked walk returns what
// the unbounded tie set merges to. Under edgar at a batch no tie set
// fills, the ranking itself must hold the whole tie set in key order.
// It also pins round 2's tie sets and key cuts. The walk visits each
// node set once under either miner, so sha has 6 ties under both, and
// at the default batch the bar stops no build; with SingleExtract it
// stops 3 on sha under both miners, and 1 of rijndael's one edgar tie.
func TestTieRankingMatchesUnboundedTies(t *testing.T) {
	for _, prog := range []struct {
		name   string
		rounds int
	}{{"sha", 3}, {"rijndael", 2}} {
		p := benchProgram(t, prog.name)
		for _, m := range []*GraphMiner{{Embedding: true}, {}} {
			for _, mode := range []struct {
				suffix string
				opts   Options
			}{{"", Options{}}, {"/single", Options{SingleExtract: true}}, {"/unbounded", Options{ref: reference{batch: 1 << 30}}}} {
				name := prog.name + "/" + m.Name() + mode.suffix
				if mode.opts.ref.batch != 0 && !m.Embedding {
					continue
				}
				o := &tieOracle{GraphMiner: m, t: t, name: name}
				opts := mode.opts
				opts.MaxRounds = prog.rounds
				Optimize(p, o, opts)
				if len(o.rounds) != prog.rounds {
					t.Fatalf("%s: mined %d rounds, want %d", name, len(o.rounds), prog.rounds)
				}
				t.Logf("%s: per-round reference ties and key cuts %v", name, o.rounds)
				want, pinned := map[string]oracleRound{
					"sha/edgar":             {ties: 6, keyCuts: 0},
					"sha/dgspan":            {ties: 6, keyCuts: 0},
					"sha/edgar/single":      {ties: 6, keyCuts: 3},
					"sha/dgspan/single":     {ties: 6, keyCuts: 3},
					"rijndael/edgar/single": {ties: 1, keyCuts: 1},
				}[name]
				if r := o.rounds[1]; pinned && r != want {
					t.Errorf("%s round 2: %d ties and %d key cuts, want %d and %d", name, r.ties, r.keyCuts, want.ties, want.keyCuts)
				}
			}
		}
	}
}
