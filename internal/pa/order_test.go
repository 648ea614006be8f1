package pa

import (
	"fmt"
	"strings"
	"testing"

	"graphpa/internal/cfg"
	"graphpa/internal/dfg"
	"graphpa/internal/loader"
)

func buildForMining(t *testing.T, prog *loader.Program) (*cfg.Program, []*dfg.Graph) {
	t.Helper()
	view := cfg.Build(prog)
	summaries := CallSummaries(view)
	graphs := make([]*dfg.Graph, len(view.Blocks))
	for i, b := range view.Blocks {
		graphs[i] = dfg.Build(b, summaries)
	}
	return view, graphs
}

// The benefit-directed walk (best-first sibling order, MIS-aware child
// pruning, warm-started incumbent) must be invisible in the output: the
// lexicographic reference arm flips the entire machinery and the Result
// has to come out byte-identical, with and without cross-round reuse.
// These tests pin that equivalence on small fixed programs; the
// full-benchmark version lives in the heavy A/B suite.

// searchArms enumerates the two search configurations whose Results
// must be indistinguishable: the lexicographic reference and the
// benefit-directed walk.
var searchArms = []struct {
	name string
	lex  bool
}{
	{"lex", true},
	{"benefit", false},
}

// orderTestSrc is reorderSrc's shape scaled up: several functions sharing
// repeated connected fragments, some with reordered consumers, some
// straddling calls, plus duplicated tails so both extraction methods and
// several rounds fire.
const orderTestSrc = `
_start:
	bl main
	swi 0
main:
	push {r4, r5, lr}
	mov r0, #1
	mov r1, #2
	mov r2, #3
	add r0, r0, r1
	eor r1, r0, #7
	add r2, r2, r0
	bl alpha
	bl beta
	add r0, r0, r2
	pop {r4, r5, pc}
alpha:
	push {r4, lr}
	add r0, r0, r1
	add r2, r2, r0
	eor r1, r0, #7
	mov r4, #9
	orr r3, r4, r0
	and r12, r3, r1
	sub r3, r3, #2
	pop {r4, pc}
beta:
	push {r4, lr}
	add r0, r0, r1
	eor r1, r0, #7
	add r2, r2, r0
	mov r4, #9
	orr r3, r4, r0
	and r12, r3, r1
	sub r3, r3, #2
	b bt
bt:
	add r0, r0, r1
	eor r1, r0, #7
	add r2, r2, r0
	pop {r4, pc}
gamma:
	push {r4, lr}
	mov r4, #9
	orr r3, r4, r0
	and r12, r3, r1
	sub r3, r3, #2
	add r0, r0, r1
	eor r1, r0, #7
	add r2, r2, r0
	pop {r4, pc}
`

// fingerprint renders everything Result-identity covers: the optimized
// program text, the extraction log, and the per-round visit counts.
func fingerprint(res *Result) string {
	var b strings.Builder
	b.WriteString(res.Program.String())
	fmt.Fprintf(&b, "rounds=%d saved=%d\n", res.Rounds, res.Saved())
	for _, e := range res.Extractions {
		fmt.Fprintf(&b, "%s %s k=%d m=%d ben=%d\n", e.Name, e.Method, e.Size, e.Occs, e.Benefit)
	}
	return b.String()
}

func visitTrace(res *Result) []int {
	var v []int
	for _, rs := range res.RoundStats {
		v = append(v, rs.Visits)
	}
	return v
}

func TestOrderInvariantResult(t *testing.T) {
	srcs := map[string]string{"reorder": reorderSrc, "mixed": orderTestSrc}
	for sname, src := range srcs {
		for _, embedding := range []bool{true, false} {
			miner := &GraphMiner{Embedding: embedding}
			// Reference arm: lexicographic walk, rebuilt every round.
			ref := Optimize(loadSrc(t, src), miner,
				Options{ref: reference{lexicographic: true, rebuild: true}})
			for _, rs := range ref.RoundStats {
				if rs.Truncated {
					t.Fatalf("%s/%s: the reference's round %d stopped at the default pattern budget", sname, miner.Name(), rs.Round)
				}
			}
			want := fingerprint(ref)
			armVisits := make([][]int, len(searchArms))
			for ai, arm := range searchArms {
				for _, rebuild := range []bool{true, false} {
					name := fmt.Sprintf("%s/%s/%s/rebuild=%v", sname, miner.Name(), arm.name, rebuild)
					res := Optimize(loadSrc(t, src), miner, Options{
						ref: reference{lexicographic: arm.lex, rebuild: rebuild},
					})
					if got := fingerprint(res); got != want {
						t.Fatalf("%s: Result differs from lexicographic reference\ngot:\n%s\nwant:\n%s", name, got, want)
					}
					// Visits must be identical across driver modes within one
					// search arm (they differ BETWEEN arms — that difference is
					// the point).
					v := visitTrace(res)
					if armVisits[ai] == nil {
						armVisits[ai] = v
					} else if fmt.Sprint(v) != fmt.Sprint(armVisits[ai]) {
						t.Fatalf("%s: visit trace %v, want %v (must not depend on cross-round reuse)", name, v, armVisits[ai])
					}
				}
			}
		}
	}
}

// TestOrderInvariantCandidateList pins the stronger per-round property
// behind Result identity: FindCandidates itself returns the identical
// candidate list (keys and benefits) under both search arms.
func TestOrderInvariantCandidateList(t *testing.T) {
	for sname, src := range map[string]string{"reorder": reorderSrc, "mixed": orderTestSrc} {
		for _, embedding := range []bool{true, false} {
			miner := &GraphMiner{Embedding: embedding}
			var want []string
			for _, arm := range searchArms {
				prog := loadSrc(t, src)
				view, graphs := buildForMining(t, prog)
				opts := Options{ref: reference{lexicographic: arm.lex}}
				cands := miner.FindCandidates(view, graphs, opts)
				var got []string
				for _, c := range cands {
					got = append(got, fmt.Sprintf("%s ben=%d", candKey(c), c.Benefit))
				}
				if want == nil {
					want = got
					continue
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s/%s/%s: candidate list differs\ngot:  %v\nwant: %v",
						sname, miner.Name(), arm.name, got, want)
				}
			}
		}
	}
}
