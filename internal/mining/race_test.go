//go:build race

package mining

// raceEnabled reports a race-detector build: sync.Pool then drops items
// at random, so pool-backed allocation counts are not reproducible.
const raceEnabled = true
