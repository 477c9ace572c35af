//go:build !race

package explore_test

// raceEnabled reports that this binary was built with the race detector.
const raceEnabled = false
