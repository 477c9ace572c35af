package explore_test

import (
	"errors"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/ioa-lab/boosting/internal/explore"
	"github.com/ioa-lab/boosting/internal/ioa"
	"github.com/ioa-lab/boosting/internal/process"
	"github.com/ioa-lab/boosting/internal/protocols"
	"github.com/ioa-lab/boosting/internal/seqtype"
	"github.com/ioa-lab/boosting/internal/service"
	"github.com/ioa-lab/boosting/internal/servicetype"
	"github.com/ioa-lab/boosting/internal/system"
)

// panickyForward is the forward program with a bug: process 2's handler
// panics when the consensus object answers 1.
type panickyForward struct{ protocols.Forward }

func (p panickyForward) HandleResponse(ctx *process.Context, svc, resp string) {
	if v, ok := seqtype.DecideValue(resp); ok && v == "1" && ctx.ID() == 2 {
		panic("handler cannot take a 1")
	}
	p.Forward.HandleResponse(ctx, svc, resp)
}

// mustPanickyForward composes forward n=3, f=0 around the buggy program.
func mustPanickyForward(t testing.TB) *system.System {
	t.Helper()
	eps := []int{0, 1, 2}
	procs := make([]*process.Process, len(eps))
	for i := range procs {
		procs[i] = process.New(i, panickyForward{protocols.Forward{Service: "k0"}})
	}
	obj, err := service.New(service.Config{Index: "k0", Type: servicetype.FromSequential(seqtype.BinaryConsensus()), Endpoints: eps})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := system.New(procs, []*service.Service{obj})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestHandlerPanicFailsTheBuild: a panic out of a Program handler while the
// level loop applies a task — on the caller's goroutine (one worker) or on one
// of the pool's (every level pooled) — comes back from BuildGraph as the same
// *PanicError for every worker count, naming the task and carrying the value;
// no worker goroutine outlives the build and the spill store's descriptors are
// closed.
func TestHandlerPanicFailsTheBuild(t *testing.T) {
	explore.SetMinPooledLevel(t, 1)
	openFiles := func() int {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			return -1
		}
		return len(entries)
	}
	dir := t.TempDir()
	for _, store := range []explore.StoreKind{explore.StoreDense, explore.StoreSpill} {
		var first *explore.PanicError
		for _, workers := range []int{1, 2, 3} {
			sys := mustPanickyForward(t)
			goroutines, files := runtime.NumGoroutine(), openFiles()
			_, err := explore.ClassifyInits(sys, explore.BuildOptions{Workers: workers, Store: store, SpillDir: dir})
			var pe *explore.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("store=%v workers=%d: error %v, want a *PanicError", store, workers, err)
			}
			if pe.Task != ioa.OutputTask("k0", 2) || pe.Value != "handler cannot take a 1" {
				t.Errorf("store=%v workers=%d: PanicError{%v, %v}", store, workers, pe.Task, pe.Value)
			}
			if first == nil {
				first = pe
			} else if *pe != *first || pe.Error() != first.Error() {
				t.Errorf("store=%v workers=%d: %v, one worker reported %v", store, workers, pe, first)
			}
			// parallelForScratch waits for its workers, so none can be left;
			// give an unrelated runtime goroutine a moment to settle anyway.
			for wait := 0; runtime.NumGoroutine() > goroutines && wait < 100; wait++ {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > goroutines {
				t.Errorf("store=%v workers=%d: %d goroutines after the failed build, %d before", store, workers, n, goroutines)
			}
			if n := openFiles(); n > files {
				t.Errorf("store=%v workers=%d: %d descriptors open after the failed build, %d before", store, workers, n, files)
			}
		}
	}
}
