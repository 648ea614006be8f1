package pa

import (
	"context"
	"strings"
	"testing"
)

// TestValidateRejectsNegativeOptions: every count and bound must be
// non-negative, and OptimizeContext reports the violation as an error
// before any work (a negative MaxNodes used to panic sizing the walk's
// bound table).
func TestValidateRejectsNegativeOptions(t *testing.T) {
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero options (all defaults) rejected: %v", err)
	}
	for _, tc := range []struct {
		field string
		opts  Options
	}{
		{"MinSupport", Options{MinSupport: -1}},
		{"MaxNodes", Options{MaxNodes: -1}},
		{"MaxSeqLen", Options{MaxSeqLen: -1}},
		{"MaxRounds", Options{MaxRounds: -1}},
		{"MaxPatterns", Options{MaxPatterns: -1}},
		{"Batch", Options{Batch: -1}},
		{"Workers", Options{Workers: -1}},
	} {
		err := tc.opts.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s = -1: Validate returned %v, want an error naming the field", tc.field, err)
			continue
		}
		if _, err := OptimizeContext(context.Background(), nil, &GraphMiner{Embedding: true}, tc.opts); err == nil {
			t.Errorf("%s = -1: OptimizeContext returned no error", tc.field)
		}
	}
}
