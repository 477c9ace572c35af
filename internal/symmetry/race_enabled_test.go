//go:build race

package symmetry_test

// raceEnabled reports that this binary was built with the race detector,
// under which sync.Pool discards a share of what is put back, so pooled
// buffers do not pin to zero allocations.
const raceEnabled = true
