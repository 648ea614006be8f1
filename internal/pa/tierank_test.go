package pa

// Tests of the search's tie set: the walk keeps every mined candidate at
// the incumbent benefit, and mergeCandidates alone ranks, dedups and cuts
// it to the driver's batch.

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
// the stream, in many orders. mergeCandidates over the tie list must
// equal mergeCandidates over every tie at the final incumbent, whatever
// the admission order.
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
			for perm := 0; perm < 200; perm++ {
				order := slices.Clone(all)
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				s := newSearch(false)
				s.bestBen = floor
				for _, c := range order {
					s.admit(c)
				}
				if len(s.ties) != len(unbounded) {
					t.Fatalf("raise=%v order %d: %d ties, want %d", withRaise, perm, len(s.ties), len(unbounded))
				}
				if got := renderCands(mergeCandidates(batch, s.ties, seeds)); !slices.Equal(got, want) {
					t.Fatalf("raise=%v batch %d order %d: merged %q, want %q", withRaise, batch, perm, got, want)
				}
			}
		}
	}
}

// raiseSrc has one three-instruction fragment in four call-safe
// functions: CallBenefit(3, 4) = 4.
const raiseSrc = `
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

// TestVisitPatternAdmitsARaise: the walk visits a pattern whose
// candidate beats the incumbent. The visit must lift bestBen to its
// benefit and leave it as the only tie.
func TestVisitPatternAdmitsARaise(t *testing.T) {
	_, graphs := buildForMining(t, loadSrc(t, raiseSrc))
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

	small := testCand(ben-1, 2, MethodCall, [2]int{0, 0}, [2]int{0, 2}, [2]int{0, 4}, [2]int{0, 6}, [2]int{0, 8}, [2]int{0, 10})
	s := newSearch(false)
	s.bestBen = ben - 1
	s.admit(small)
	m.visitPattern(s, byID, safe, Options{}, best)
	if s.bestBen != ben {
		t.Fatalf("incumbent %d, want %d: the raise was not admitted", s.bestBen, ben)
	}
	if len(s.ties) != 1 || s.ties[0].Size != 3 || s.ties[0].Benefit != ben {
		t.Fatalf("ties %q, want the one size-3 candidate", renderCands(s.ties))
	}
}

// tieOracle runs a graph miner inside the real driver and, in the same
// walk, a reference visitor that builds every visited pattern against
// the seed floor and keeps every tie. mergeCandidates over the reference
// tie set must equal what FindCandidates returns.
type tieOracle struct {
	*GraphMiner
	t      *testing.T
	name   string
	rounds []int // each round's reference tie count
}

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
	tap := func(p *mining.Pattern) {
		k := p.Code.NumNodes()
		if k < 2 {
			return
		}
		sel := p.Disjoint
		if !o.Embedding {
			sel = mining.DisjointIndices(p.Embeddings, mining.Config{GreedyMIS: opts.GreedyMIS})
		}
		c := o.buildCandidate(byID, p.Embeddings, sel, k, safe, best-1, &conv)
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
	if opts.stat.Ties != len(ties) {
		o.t.Errorf("%s round %d: the walk reports %d ties, the reference holds %d", o.name, round, opts.stat.Ties, len(ties))
	}
	o.rounds = append(o.rounds, len(ties))
	return got
}

// TestTieRankingMatchesUnboundedTies is the tie list's oracle: on sha's
// first three rounds and rijndael's first two, under edgar and dgspan, at
// the default batch and with SingleExtract (and under edgar at a batch no
// tie set fills), the walk returns what the reference tie set merges to,
// and every round's RoundStat.Ties equals the reference's count. It also
// pins round 2's tie sets: the walk visits each node set once under
// either miner, so sha has 6 ties under both, and rijndael's edgar round
// 2 has one under SingleExtract.
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
				t.Logf("%s: per-round reference ties %v", name, o.rounds)
				want, pinned := map[string]int{
					"sha/edgar":             6,
					"sha/dgspan":            6,
					"sha/edgar/single":      6,
					"sha/dgspan/single":     6,
					"rijndael/edgar/single": 1,
				}[name]
				if r := o.rounds[1]; pinned && r != want {
					t.Errorf("%s round 2: %d ties, want %d", name, r, want)
				}
			}
		}
	}
}

// TestTieSetWithinBatch bounds the tie list's memory: no round on the
// eight programs, under any graph miner, with or without SingleExtract,
// holds more than defaultBatch mined ties at its final incumbent. The
// walk keeps every tie, so this is the bound a ranking would otherwise
// have to enforce (the largest measured: 6 at default options, 10 under
// SingleExtract).
func TestTieSetWithinBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 48 fixpoints")
	}
	largest := map[bool]int{}
	for _, name := range []string{"bitcnts", "crc", "dijkstra", "patricia", "qsort", "rijndael", "search", "sha"} {
		p := benchProgram(t, name)
		for _, m := range []*GraphMiner{{Embedding: true}, {Embedding: true, CanonicalMatch: true}, {}} {
			for _, opts := range []Options{{}, {SingleExtract: true}} {
				most := 0
				for _, st := range Optimize(p, m, opts).RoundStats {
					most = max(most, st.Ties)
				}
				if most > defaultBatch {
					t.Errorf("%s/%s single=%v: a round holds %d ties, more than %d", name, m.Name(), opts.SingleExtract, most, defaultBatch)
				}
				largest[opts.SingleExtract] = max(largest[opts.SingleExtract], most)
			}
		}
	}
	t.Logf("largest tie set: %d at default options, %d under SingleExtract", largest[false], largest[true])
}
