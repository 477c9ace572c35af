package explore

// In-package tests for the fan-out helpers the refuters and RunBatch share:
// effectiveWorkers resolves the Workers knob and parallelFor runs the
// independent units.

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
)

// TestEffectiveWorkers: 0 means one worker per GOMAXPROCS, anything below 1
// means one, anything else is taken as given.
func TestEffectiveWorkers(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, runtime.GOMAXPROCS(0)},
		{-1, 1},
		{-100, 1},
		{1, 1},
		{2, 2},
		{64, 64},
	} {
		if got := effectiveWorkers(tc.in); got != tc.want {
			t.Errorf("effectiveWorkers(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestParallelFor runs every index of [0, n) exactly once, never on more
// goroutines at a time than min(workers, n), and — with one worker or at most
// one index — as a plain loop in index order on the calling goroutine.
func TestParallelFor(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{
		{4, 0},
		{4, 1},
		{1, 10},
		{0, 10},
		{3, 10},
		{8, 3},
		{2, 1000},
	} {
		t.Run(fmt.Sprintf("workers=%d,n=%d", tc.workers, tc.n), func(t *testing.T) {
			runs := make([]atomic.Int32, tc.n)
			var active, peak atomic.Int32
			var order []int // appended to only when the loop is serial
			serial := tc.workers <= 1 || tc.n <= 1
			parallelFor(tc.workers, tc.n, func(i int) {
				now := active.Add(1)
				for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
				}
				runs[i].Add(1)
				if serial {
					order = append(order, i)
				}
				active.Add(-1)
			})
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Errorf("index %d ran %d times", i, got)
				}
			}
			if bound := max(1, min(tc.workers, tc.n)); int(peak.Load()) > bound {
				t.Errorf("%d indices ran at once, want at most %d", peak.Load(), bound)
			}
			if serial {
				want := make([]int, tc.n)
				for i := range want {
					want[i] = i
				}
				if !slices.Equal(order, want) {
					t.Errorf("serial loop ran %v, want %v", order, want)
				}
			}
		})
	}
}
