//go:build !race

package symmetry_test

// raceEnabled reports that this binary was built with the race detector.
const raceEnabled = false
