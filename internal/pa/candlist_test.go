package pa

import (
	"math/rand"
	"testing"

	"graphpa/internal/cfg"
)

// The scalar incumbent is the heart of the order-invariance argument:
// whatever order candidates arrive in, the final (best benefit, tie set)
// must come out the same SET — only then can the benefit-directed and
// lexicographic walks return identical merged lists.
func TestAdmitOrderInvariantTieSet(t *testing.T) {
	a := testCand(5, 2, MethodCall, [2]int{1, 0})
	b := testCand(7, 2, MethodCall, [2]int{2, 0})
	c := testCand(7, 2, MethodCall, [2]int{3, 0})
	d := testCand(3, 2, MethodCall, [2]int{4, 0})

	perms := [][]*Candidate{
		{a, b, c, d},
		{d, c, b, a},
		{b, d, a, c},
		{c, a, d, b},
	}
	for pi, perm := range perms {
		s := newSearch(false, 16)
		for _, x := range perm {
			s.admit(x, candKey(x))
		}
		if s.bestBen != 7 {
			t.Fatalf("perm %d: incumbent %d, want 7", pi, s.bestBen)
		}
		if len(s.ties) != 2 {
			t.Fatalf("perm %d: %d ties, want 2", pi, len(s.ties))
		}
		seen := map[*Candidate]bool{}
		for _, x := range s.ties {
			seen[x.cand] = true
		}
		if !seen[b] || !seen[c] {
			t.Fatalf("perm %d: tie set lost a maximum candidate", pi)
		}
	}

	// A candidate below the incumbent (possible only from a stale-threshold
	// build) is dropped, not kept as a runner-up.
	s := newSearch(false, 16)
	s.bestBen = 10
	s.admit(a, candKey(a))
	if len(s.ties) != 0 {
		t.Fatalf("sub-incumbent candidate admitted into the tie set")
	}
}

func testCand(benefit, size int, method Method, occs ...[2]int) *Candidate {
	c := &Candidate{Size: size, Method: method, Benefit: benefit}
	for _, o := range occs {
		blk := &cfg.Block{ID: o[0]}
		c.Occs = append(c.Occs, Occurrence{Block: blk, DFS: []int{o[1], o[1] + 1}})
	}
	return c
}

// candKey must separate every pair of distinct rewrites — equal keys are
// treated as interchangeable by the merge.
func TestCandKeyDistinguishesRewrites(t *testing.T) {
	base := testCand(5, 2, MethodCall, [2]int{1, 0}, [2]int{2, 0})
	variants := []*Candidate{
		testCand(5, 3, MethodCall, [2]int{1, 0}, [2]int{2, 0}),      // size
		testCand(5, 2, MethodCrossJump, [2]int{1, 0}, [2]int{2, 0}), // method
		testCand(5, 2, MethodCall, [2]int{1, 0}, [2]int{3, 0}),      // block
		testCand(5, 2, MethodCall, [2]int{1, 0}, [2]int{2, 4}),      // DFS indices
		testCand(5, 2, MethodCall, [2]int{1, 0}),                    // occurrence count
	}
	bk := candKey(base)
	for i, v := range variants {
		if candKey(v) == bk {
			t.Fatalf("variant %d collides with base key %q", i, bk)
		}
	}
	dup := testCand(9, 2, MethodCall, [2]int{1, 0}, [2]int{2, 0})
	if candKey(dup) != bk {
		t.Fatalf("same rewrite must key equal regardless of stored benefit")
	}
}

// mergeCandidates must return the same list for any permutation of its
// inputs, drop key duplicates, and respect the batch limit.
func TestMergeCandidatesDeterministic(t *testing.T) {
	mk := func() []*Candidate {
		return []*Candidate{
			testCand(7, 2, MethodCall, [2]int{1, 0}, [2]int{2, 0}),
			testCand(7, 2, MethodCall, [2]int{3, 0}, [2]int{4, 0}),
			testCand(5, 2, MethodCall, [2]int{5, 0}, [2]int{6, 0}),
			testCand(5, 2, MethodCall, [2]int{5, 0}, [2]int{6, 0}), // dup of previous
			testCand(3, 2, MethodCrossJump, [2]int{7, 0}, [2]int{8, 0}),
		}
	}
	ref := mergeCandidates(16, mk()[:2], mk()[2:])
	if len(ref) != 4 {
		t.Fatalf("dedupe failed: got %d candidates, want 4", len(ref))
	}
	refKeys := make([]string, len(ref))
	for i, c := range ref {
		refKeys[i] = candKey(c)
	}
	for i := 1; i < len(ref); i++ {
		if ref[i-1].Benefit < ref[i].Benefit {
			t.Fatalf("merge output not sorted by descending benefit")
		}
	}

	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		all := mk()
		r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		cut := r.Intn(len(all) + 1)
		got := mergeCandidates(16, all[:cut], all[cut:])
		if len(got) != len(ref) {
			t.Fatalf("trial %d: %d candidates, want %d", trial, len(got), len(ref))
		}
		for i, c := range got {
			if candKey(c) != refKeys[i] || c.Benefit != ref[i].Benefit {
				t.Fatalf("trial %d: position %d differs from reference", trial, i)
			}
		}
	}

	if got := mergeCandidates(2, mk()[:2], mk()[2:]); len(got) != 2 {
		t.Fatalf("limit not enforced: kept %d", len(got))
	}
}
