package pa

// Test-only hooks for the external pa_test suites, which reach the
// benchmark programs through internal/bench — an import cycle for
// in-package tests.

// CandKey is the merge's canonical candidate key (warmstart.go).
var CandKey = candKey
