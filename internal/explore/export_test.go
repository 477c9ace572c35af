package explore

import "testing"

// SetMinPooledLevel moves the width from which the level loop fans a level
// out, for the length of the test: 1 puts every level of a build with more
// than one worker on the pool, which is what the worker-parity suites need on
// graphs that have no level as wide as the default.
func SetMinPooledLevel(t testing.TB, width int) {
	old := minPooledLevel
	minPooledLevel = width
	t.Cleanup(func() { minPooledLevel = old })
}
