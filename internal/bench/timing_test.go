package bench

import (
	"testing"

	"graphpa/internal/core"
	"graphpa/internal/pa"
)

// TestTimingProbe runs each miner per program as a subtest so progress is
// visible; skipped with -short.
func TestTimingProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("full per-program optimization probe")
	}
	combos := map[string][]string{
		"crc":      {"sfx", "dgspan", "edgar"},
		"rijndael": {"sfx", "dgspan", "edgar"},
	}
	for _, name := range []string{"crc", "rijndael"} {
		w, err := Build(name, DefaultCodegen())
		if err != nil {
			t.Fatal(err)
		}
		for _, mn := range combos[name] {
			t.Run(name+"/"+mn, func(t *testing.T) {
				m, _ := core.MinerByName(mn)
				res, img, err := core.Optimize(w.Image, m, pa.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if err := core.VerifyEquivalent(w.Image, img, nil); err != nil {
					t.Fatalf("VERIFY FAILED: %v", err)
				}
				t.Logf("before=%d saved=%d rounds=%d calls=%d xjumps=%d dur=%v",
					res.Before, res.Saved(), res.Rounds, res.Calls(), res.CrossJumps(), res.Duration)
			})
		}
	}
}
