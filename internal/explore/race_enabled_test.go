//go:build race

package explore_test

// raceEnabled reports that this binary was built with the race detector,
// under which sync.Pool discards a share of what is put back, so a build
// that interns through pooled encode buffers allocates more than it does
// without it.
const raceEnabled = true
