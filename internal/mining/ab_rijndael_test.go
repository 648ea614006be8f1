package mining_test

// Same-process A/B of the boxed reference layout against the flat EmbSet
// layout on the paper's worst-case workload. Both walks run once, in this
// order, inside one process, so they see the same binary, the same heap
// state and the same machine — the only difference is the embedding
// representation. The digest makes the comparison order-sensitive and
// covers every visited pattern's code, support, embedding rows and
// disjoint set, at identical per-visit cost on both sides.

import (
	"runtime"
	"testing"
	"time"

	"graphpa/internal/mining"
)

const fnvPrime64 = 1099511628211

// digest is an order-sensitive FNV-style fold of a visit sequence.
type digest struct {
	h uint64
	n int
}

func (d *digest) mix(x uint64) { d.h = (d.h ^ x) * fnvPrime64 }

func (d *digest) str(s string) {
	for i := 0; i < len(s); i++ {
		d.mix(uint64(s[i]))
	}
}

// TestFlatLayoutRijndaelAB is the acceptance gate for the flat embedding
// core: the flat walk must visit the identical pattern sequence and
// finish in no more than 75% of the boxed layout's wall clock.
func TestFlatLayoutRijndaelAB(t *testing.T) {
	if testing.Short() {
		t.Skip("same-process A/B over the full rijndael workload; skipped with -short")
	}
	graphs := rijndaelGraphs(t)
	// Lexicographic pins the boxed reference's sibling order: this A/B
	// isolates the embedding layout, not the search order. The boxed
	// reference grows edges, as the graph-count walk does; the
	// embedding-support walk grows induced node sets.
	cfg := mining.Config{MinSupport: 2, MaxNodes: 8, MaxPatterns: 20000, Lexicographic: true}

	runtime.GC()
	var oldD digest
	t0 := time.Now()
	mining.OldMine(graphs, cfg, func(p *mining.OldPattern) {
		oldD.n++
		oldD.str(p.Code.Key())
		oldD.mix(uint64(p.Support))
		oldD.mix(uint64(len(p.Embeddings)))
		for _, e := range p.Embeddings {
			oldD.mix(uint64(e.GID))
			for _, v := range e.Nodes {
				oldD.mix(uint64(v))
			}
			for _, v := range e.Edges {
				oldD.mix(uint64(v))
			}
		}
		oldD.mix(uint64(len(p.Disjoint)))
		for _, e := range p.Disjoint {
			oldD.mix(uint64(e.GID))
			for _, v := range e.Nodes {
				oldD.mix(uint64(v))
			}
		}
	})
	oldDur := time.Since(t0)

	runtime.GC()
	var newD digest
	t1 := time.Now()
	mining.Mine(graphs, cfg, func(p *mining.Pattern) {
		set := p.Embeddings
		newD.n++
		newD.str(p.Code.Key())
		newD.mix(uint64(p.Support))
		newD.mix(uint64(set.Len()))
		for i := 0; i < set.Len(); i++ {
			newD.mix(uint64(set.GID(i)))
			for _, v := range set.Nodes(i) {
				newD.mix(uint64(v))
			}
			for _, v := range set.Edges(i) {
				newD.mix(uint64(v))
			}
		}
		newD.mix(uint64(len(p.Disjoint)))
		for _, ix := range p.Disjoint {
			newD.mix(uint64(set.GID(int(ix))))
			for _, v := range set.Nodes(int(ix)) {
				newD.mix(uint64(v))
			}
		}
	})
	newDur := time.Since(t1)

	if oldD.n != newD.n || oldD.h != newD.h {
		t.Fatalf("visit sequences diverge: boxed %d patterns digest %#x, flat %d patterns digest %#x",
			oldD.n, oldD.h, newD.n, newD.h)
	}
	t.Logf("rijndael A/B: boxed %v, flat %v over %d patterns — speedup %.2fx",
		oldDur, newDur, oldD.n, float64(oldDur)/float64(newDur))
	if newDur > oldDur*3/4 {
		t.Fatalf("flat walk took %v vs boxed %v (%.2f%% of boxed); want <= 75%%",
			newDur, oldDur, 100*float64(newDur)/float64(oldDur))
	}
}
