// Package allocpin stabilizes allocation-contract tests built on
// testing.AllocsPerRun. AllocsPerRun pins the measured goroutine to one P,
// but the heap counters it reads are process-wide: GC assists, finalizers
// and goroutines left running by earlier tests all charge allocations to
// the sample. Under a loaded `go test -race ./...` run those strays are
// frequent enough to flake a want-zero pin. Two properties restore
// determinism: stray work can only INFLATE a sample (the contract under
// test never allocates less than it must), so any clean sample proves the
// contract; and serializing all pins through one process-wide mutex keeps
// concurrently-running alloc tests in the same binary from charging each
// other. Check therefore takes a few serialized samples and passes as soon
// as one meets the bound, reporting the best sample only when all fail.
package allocpin

import (
	"sync"
	"testing"
)

// mu serializes every measurement in the process, so parallel alloc pins
// in one test binary never overlap.
var mu sync.Mutex

// attempts bounds the retries; a real contract violation fails every
// sample, so retrying never masks one.
const attempts = 5

// Check asserts that fn performs at most max allocations per call, taking
// up to a few serialized AllocsPerRun samples of runs calls each and
// passing on the first sample within the bound. name labels the failure.
func Check(t *testing.T, name string, runs int, max float64, fn func()) {
	t.Helper()
	mu.Lock()
	defer mu.Unlock()
	best := testing.AllocsPerRun(runs, fn)
	for i := 1; best > max && i < attempts; i++ {
		if n := testing.AllocsPerRun(runs, fn); n < best {
			best = n
		}
	}
	if best > max {
		t.Errorf("%s allocated %.1f times per run, want <= %.1f (best of %d samples)",
			name, best, max, attempts)
	}
}

// Exclusive runs fn holding the mutex Check measures under, for pins that read
// another process-wide heap counter (bytes, not objects) themselves.
func Exclusive(fn func()) {
	mu.Lock()
	defer mu.Unlock()
	fn()
}
