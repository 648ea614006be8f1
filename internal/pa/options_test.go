package pa

import (
	"context"
	"math"
	"strings"
	"testing"
)

// TestValidateRejectsNegativeOptions: every count and bound must be
// non-negative, MaxNodes at most MaxNodesLimit, and OptimizeContext
// reports the violation as an error before any work.
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
		{"MaxNodes", Options{MaxNodes: MaxNodesLimit + 1}},
		{"MaxNodes", Options{MaxNodes: math.MaxInt}},
	} {
		err := tc.opts.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%+v: Validate returned %v, want an error naming %s", tc.opts, err, tc.field)
			continue
		}
		if _, err := OptimizeContext(context.Background(), nil, &GraphMiner{Embedding: true}, tc.opts); err == nil {
			t.Errorf("%+v: OptimizeContext returned no error", tc.opts)
		}
	}
	if err := (Options{MaxNodes: MaxNodesLimit}).Validate(); err != nil {
		t.Errorf("MaxNodes = MaxNodesLimit rejected: %v", err)
	}
}
