package pa

import (
	"sort"
	"strconv"

	"graphpa/internal/arm"
	"graphpa/internal/cfg"
	"graphpa/internal/dfg"
)

// Warm-starting the branch-and-bound incumbent (miners.go) needs the
// previous round's candidates back — but as data, not pointers: Apply
// rewrites blocks in place and Resplit (or a scratch rebuild) replaces
// the block objects, so a *Candidate from round n dangles in round n+1.
// The driver therefore stashes each candidate in relocatable form —
// function name, block position, DFS indices, and a content snapshot of
// the whole block — immediately after FindCandidates returns, while the
// view still matches the occurrences. Next round the miner relocates
// each occurrence by (name, position), accepts it only if the block
// content is byte-identical to the snapshot, and re-runs the full
// occurrence filter against the fresh dependence graphs. Content
// addressing is what keeps the two driver modes aligned: Resplit
// preserves flattened content exactly and the scratch rebuild
// reconstructs it, so a stashed occurrence relocates (or fails to) the
// same way in both — a precondition for the incremental/scratch
// byte-identity guarantee.

// carryOcc is one occurrence in relocatable form.
type carryOcc struct {
	fn     string
	idx    int         // position of the block in fn.Blocks at stash time
	dfs    []int       // pattern coordinates (DFS index -> instruction index)
	instrs []arm.Instr // content snapshot of the whole block
}

// carryCand is one stashed candidate.
type carryCand struct {
	size int
	occs []carryOcc
}

// stashCarry converts a round's returned candidates into relocatable
// form against the pre-Apply view.
func stashCarry(view *cfg.Program, cands []*Candidate) []carryCand {
	if len(cands) == 0 {
		return nil
	}
	idxOf := make(map[*cfg.Block]int, len(view.Blocks))
	for _, fn := range view.Funcs {
		for i, b := range fn.Blocks {
			idxOf[b] = i
		}
	}
	out := make([]carryCand, 0, len(cands))
	for _, c := range cands {
		if c == nil {
			continue
		}
		cc := carryCand{size: c.Size, occs: make([]carryOcc, 0, len(c.Occs))}
		for _, o := range c.Occs {
			i, ok := idxOf[o.Block]
			if !ok {
				continue
			}
			cc.occs = append(cc.occs, carryOcc{
				fn:     o.Block.Fn.Name,
				idx:    i,
				dfs:    append([]int(nil), o.DFS...),
				instrs: append([]arm.Instr(nil), o.Block.Instrs...),
			})
		}
		if len(cc.occs) >= 2 {
			out = append(out, cc)
		}
	}
	return out
}

// revalidateCarry relocates the previous round's stash against the
// current view and re-runs the occurrence filter, returning the
// candidates that still stand. Candidates whose blocks were rewritten by
// the extraction fail the content check and drop out — exactly the ones
// whose savings were already taken.
func (m *GraphMiner) revalidateCarry(view *cfg.Program, graphs []*dfg.Graph, carry []carryCand, safe callSafeCache) []*Candidate {
	if len(carry) == 0 {
		return nil
	}
	fnByName := make(map[string]*cfg.Func, len(view.Funcs))
	for _, fn := range view.Funcs {
		fnByName[fn.Name] = fn
	}
	graphOf := make(map[*cfg.Block]*dfg.Graph, len(graphs))
	for _, g := range graphs {
		graphOf[g.Block] = g
	}
	var out []*Candidate
	for _, cc := range carry {
		var reloc []Occurrence
		for _, co := range cc.occs {
			fn := fnByName[co.fn]
			if fn == nil || co.idx >= len(fn.Blocks) {
				continue
			}
			b := fn.Blocks[co.idx]
			if !instrsEqual(b.Instrs, co.instrs) {
				continue
			}
			g := graphOf[b]
			if g == nil {
				continue
			}
			dfsN := append([]int(nil), co.dfs...)
			reloc = append(reloc, Occurrence{Block: b, Graph: g, Nodes: sortedNodes(dfsN), DFS: dfsN})
		}
		if len(reloc) < 2 {
			continue
		}
		if c := m.refilterOccs(cc.size, reloc, safe); c != nil {
			out = append(out, c)
		}
	}
	return out
}

// refilterOccs mirrors buildCandidate's occurrence filter over relocated
// occurrences: same reference signature, same extractability and
// schedulability checks, same admission rule — only the mining-side
// bail-out threshold is absent (the caller wants every surviving
// candidate, not just incumbent-beating ones; the warm floor is taken
// afterwards). Keeping the two filters behaviourally identical is what
// lets a carried candidate stand in for the mined rediscovery of the
// same fragment.
func (m *GraphMiner) refilterOccs(k int, reloc []Occurrence, safe callSafeCache) *Candidate {
	first := reloc[0]
	hasTerm := containsTerminator(first.Graph, first.Nodes)
	var conv convexScratch
	conv.setReference(&first)

	var occs []Occurrence
	blFrags := map[*cfg.Block][][]int{}
	for i := range reloc {
		occ := reloc[i]
		if hasTerm {
			if !crossJumpExtractable(occ.Graph, occ.Nodes) {
				continue
			}
		} else {
			if !callExtractable(occ.Graph, occ.Nodes, safe) {
				continue
			}
		}
		if !conv.sameSignature(&occ) {
			continue
		}
		if !hasTerm && !conv.admit(blFrags, &occ) {
			continue
		}
		occs = append(occs, occ)
	}
	var b int
	if hasTerm {
		b = CrossJumpBenefit(k, len(occs))
	} else {
		b = CallBenefit(k, len(occs))
	}
	if len(occs) < 2 || b <= 0 {
		return nil
	}
	return &Candidate{Size: k, Occs: occs, Method: methodOf(hasTerm), Benefit: b}
}

// candKey is a canonical identity for a candidate: extraction method,
// fragment size, and each occurrence's block ID plus full DFS index
// sequence, with unambiguous separators. Two candidates with equal keys
// specify identical rewrites, so the merge below may keep either.
func candKey(c *Candidate) string {
	n := 16
	for i := range c.Occs {
		n += 8 + 4*len(c.Occs[i].DFS)
	}
	b := make([]byte, 0, n)
	b = append(b, c.Method.String()...)
	b = append(b, '#')
	b = strconv.AppendInt(b, int64(c.Size), 10)
	for i := range c.Occs {
		o := &c.Occs[i]
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(o.Block.ID), 10)
		b = append(b, ':')
		for j, d := range o.DFS {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(d), 10)
		}
	}
	return string(b)
}

// mergeCandidates builds FindCandidates' return list from the mined tie
// set and the warm-start pool (sequence seeds plus revalidated carry):
// sort by descending benefit with the canonical key as tie-break, drop
// key duplicates, truncate to the driver's batch size. Every input is an
// order-invariant set and the comparator is total on distinct rewrites,
// so the returned list is identical whatever order the walk produced the
// ties in — the keystone of the lexicographic/benefit-directed Result
// identity.
func mergeCandidates(limit int, mined, warm []*Candidate) []*Candidate {
	all := make([]*Candidate, 0, len(mined)+len(warm))
	all = append(all, mined...)
	all = append(all, warm...)
	if len(all) == 0 {
		return nil
	}
	keys := make(map[*Candidate]string, len(all))
	for _, c := range all {
		keys[c] = candKey(c)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Benefit != all[j].Benefit {
			return all[i].Benefit > all[j].Benefit
		}
		return keys[all[i]] < keys[all[j]]
	})
	out := all[:0]
	for i, c := range all {
		if i > 0 && keys[c] == keys[all[i-1]] {
			continue
		}
		out = append(out, c)
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}
