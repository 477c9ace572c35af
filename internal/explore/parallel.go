package explore

import (
	"runtime"
	"sync"
)

// effectiveWorkers resolves a Workers knob: 0 means one worker per CPU the
// process may run on at once (GOMAXPROCS, not the machine's CPU count: a pool
// wider than that only queues on the same Ps), anything below 1 means one.
func effectiveWorkers(w int) int {
	if w == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		return 1
	}
	return w
}

// parallelFor runs f(0) … f(n-1) over the given number of workers, splitting
// the index space into contiguous chunks. It degenerates to a plain loop when
// workers <= 1 or the index space is trivial.
func parallelFor(workers, n int, f func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				f(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}
