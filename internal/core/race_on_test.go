//go:build race

package core

// raceEnabled reports a -race build, in which sync.Pool drops pooled
// objects at random, so allocation counts of pooled paths are not exact.
const raceEnabled = true
