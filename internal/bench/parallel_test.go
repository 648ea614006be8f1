package bench

// End-to-end check of the parallelism that remains: whole optimization
// runs side by side, as Evaluate's program×miner cells and the service's
// jobs run them. Each run is one serial pipeline, so runs share no
// mutable state; under -race this test is where a stray shared cache
// would show. Short mode keeps the two fastest programs.

import (
	"context"
	"testing"

	"graphpa/internal/core"
	"graphpa/internal/link"
	"graphpa/internal/pa"
	"graphpa/internal/par"
)

// parRunWidth is how many optimizations run at once.
const parRunWidth = 2

// TestParallelOptimizedBinariesBehave: every binary produced by
// optimizations running concurrently must behave exactly like its
// unoptimized original (exit code and output) under the emulator — the
// same differential check the harness applies.
func TestParallelOptimizedBinariesBehave(t *testing.T) {
	names := Names
	if testing.Short() {
		names = []string{"crc", "search"}
	}
	m, err := core.MinerByName("edgar")
	if err != nil {
		t.Fatal(err)
	}
	ws := make([]*Workload, len(names))
	for i, n := range names {
		if ws[i], err = Build(n, DefaultCodegen()); err != nil {
			t.Fatal(err)
		}
	}
	err = par.OrderedMap(context.Background(), parRunWidth, len(ws),
		func(_ context.Context, i int) (*link.Image, error) {
			_, img, err := core.Optimize(ws[i].Image, m, pa.Options{})
			return img, err
		},
		func(i int, img *link.Image) error {
			if err := core.VerifyEquivalent(ws[i].Image, img, nil); err != nil {
				t.Errorf("%s: optimized binary diverges: %v", ws[i].Name, err)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
}
