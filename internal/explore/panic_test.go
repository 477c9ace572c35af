package explore_test

import (
	"errors"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/ioa-lab/boosting/internal/codec"
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
// level loop applies a task comes back from BuildGraph as a *PanicError,
// naming the task and carrying the value, on every store; no goroutine
// outlives the build and the spill store's descriptors are closed.
func TestHandlerPanicFailsTheBuild(t *testing.T) {
	openFiles := func() int {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			return -1
		}
		return len(entries)
	}
	dir := t.TempDir()
	for _, store := range []explore.StoreKind{explore.StoreDense, explore.StoreSpill} {
		sys := mustPanickyForward(t)
		goroutines, files := runtime.NumGoroutine(), openFiles()
		_, err := explore.ClassifyInits(sys, explore.BuildOptions{Store: store, SpillDir: dir})
		var pe *explore.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("store=%v: error %v, want a *PanicError", store, err)
		}
		if pe.Task != ioa.OutputTask("k0", 2) || pe.Value != "handler cannot take a 1" {
			t.Errorf("store=%v: PanicError{%v, %v}", store, pe.Task, pe.Value)
		}
		// The build starts no goroutine; give an unrelated runtime one a
		// moment to settle anyway.
		for wait := 0; runtime.NumGoroutine() > goroutines && wait < 100; wait++ {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > goroutines {
			t.Errorf("store=%v: %d goroutines after the failed build, %d before", store, n, goroutines)
		}
		if n := openFiles(); n > files {
			t.Errorf("store=%v: %d descriptors open after the failed build, %d before", store, n, files)
		}
	}
}

// TestServiceTypePanicFailsTheBuild: a panic out of a service type's δ1 — the
// consensus object's, performing endpoint 2's init(1) — comes back from
// ClassifyInits as a *PanicError naming that perform task, on every store.
// The level loop lists its candidate tasks without running component code,
// so the panic is raised, and attributed, where the task is stepped.
func TestServiceTypePanicFailsTheBuild(t *testing.T) {
	typ := *servicetype.FromSequential(seqtype.BinaryConsensus())
	delta1 := typ.Delta1
	typ.Delta1 = func(inv string, endpoint int, val string, failed codec.IntSet) (servicetype.ResponseMap, string) {
		if endpoint == 2 && inv == seqtype.Init("1") {
			panic("δ1 cannot take endpoint 2's 1")
		}
		return delta1(inv, endpoint, val, failed)
	}
	eps := []int{0, 1, 2}
	procs := make([]*process.Process, len(eps))
	for i := range procs {
		procs[i] = process.New(i, protocols.Forward{Service: "k0"})
	}
	dir := t.TempDir()
	for _, store := range []explore.StoreKind{explore.StoreDense, explore.StoreSpill} {
		obj, err := service.New(service.Config{Index: "k0", Type: &typ, Endpoints: eps})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := system.New(procs, []*service.Service{obj})
		if err != nil {
			t.Fatal(err)
		}
		_, err = explore.ClassifyInits(sys, explore.BuildOptions{Store: store, SpillDir: dir})
		var pe *explore.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("store=%v: error %v, want a *PanicError", store, err)
		}
		if pe.Task != ioa.PerformTask("k0", 2) || pe.Value != "δ1 cannot take endpoint 2's 1" {
			t.Errorf("store=%v: PanicError{%v, %v}", store, pe.Task, pe.Value)
		}
	}
}
