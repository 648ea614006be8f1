package bench

import (
	"testing"

	"graphpa/internal/codegen"
	"graphpa/internal/core"
	"graphpa/internal/pa"
)

// TestRijndaelEdgarRegression is the permanent regression for the
// call-summary soundness bug (see DESIGN.md §6): Edgar on unoptimized,
// scheduled rijndael used to hoist an eor past an outlined procedure that
// consumed its result, corrupting AES decryption. A full optimize +
// differential verify must pass.
func TestRijndaelEdgarRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("full rijndael optimization")
	}
	w, err := Build("rijndael", codegen.Options{Schedule: true})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := core.MinerByName("edgar")
	// Eight rounds cover the historical failure (round 7). The cap keeps
	// the test on the rounds that failed, not on the later ones that
	// depend on them.
	res, img, err := core.Optimize(w.Image, m, pa.Options{MaxRounds: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyEquivalent(w.Image, img, nil); err != nil {
		t.Fatalf("VERIFY FAILED: %v", err)
	}
	t.Logf("saved=%d rounds=%d dur=%v", res.Saved(), res.Rounds, res.Duration)
}
