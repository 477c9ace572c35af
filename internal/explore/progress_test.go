package explore_test

import (
	"context"
	"errors"
	"os"
	"testing"

	"github.com/ioa-lab/boosting/internal/explore"
	"github.com/ioa-lab/boosting/internal/protocols"
	"github.com/ioa-lab/boosting/internal/service"
	"github.com/ioa-lab/boosting/internal/system"
)

func forwardRoot(t *testing.T, n, f int) (*system.System, system.State) {
	t.Helper()
	sys, err := protocols.BuildForward(n, f, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	root, _, err := initAll(sys)
	if err != nil {
		t.Fatal(err)
	}
	return sys, root
}

// TestProgressStreaming checks the per-level Progress contract: one report
// per BFS level, cumulative totals matching the finished graph, a final
// empty frontier, and the exact same sequence from the inline body, the
// pooled body, and every store backend.
func TestProgressStreaming(t *testing.T) {
	explore.SetMinPooledLevel(t, 1)
	sys, root := forwardRoot(t, 3, 0)
	var want []explore.Progress
	collect := func(dst *[]explore.Progress) explore.ProgressFunc {
		return func(p explore.Progress) { *dst = append(*dst, p) }
	}
	g, err := explore.BuildGraph(sys, []system.State{root}, explore.BuildOptions{Workers: 1, Progress: collect(&want)})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("no progress reports from serial build")
	}
	last := want[len(want)-1]
	if last.Frontier != 0 {
		t.Errorf("final frontier %d, want 0", last.Frontier)
	}
	if last.States != g.Size() || last.Edges != g.Edges() {
		t.Errorf("final totals (%d states, %d edges) != graph (%d, %d)",
			last.States, last.Edges, g.Size(), g.Edges())
	}
	for i := 1; i < len(want); i++ {
		if want[i].Level != i || want[i].States < want[i-1].States || want[i].Edges < want[i-1].Edges {
			t.Fatalf("non-monotone progress at %d: %+v after %+v", i, want[i], want[i-1])
		}
	}
	for _, tc := range []struct {
		name string
		opt  explore.BuildOptions
	}{
		{"parallel", explore.BuildOptions{Workers: 4}},
		{"spill", explore.BuildOptions{Workers: 1, Store: explore.StoreSpill, SpillDir: t.TempDir()}},
		{"spill-parallel", explore.BuildOptions{Workers: 4, Store: explore.StoreSpill, SpillDir: t.TempDir()}},
	} {
		var got []explore.Progress
		tc.opt.Progress = collect(&got)
		g, err := explore.BuildGraph(sys, []system.State{root}, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := explore.CloseGraphStore(g); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d reports, want %d", tc.name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: report %d = %+v, want %+v", tc.name, i, got[i], want[i])
			}
		}
	}
}

// TestBuildGraphCancellation cancels a build from inside a progress
// callback — i.e. while later levels are still pending — and expects
// ctx.Err() promptly from both level bodies, with the exploration cut short.
func TestBuildGraphCancellation(t *testing.T) {
	explore.SetMinPooledLevel(t, 1)
	sys, root := forwardRoot(t, 3, 0)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		levels := 0
		_, err := explore.BuildGraph(sys, []system.State{root}, explore.BuildOptions{
			Workers: workers,
			Ctx:     ctx,
			Progress: func(explore.Progress) {
				levels++
				if levels == 2 {
					cancel()
				}
			},
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if levels >= 10 {
			t.Errorf("workers=%d: %d levels ran after cancellation", workers, levels)
		}
	}
}

// TestCancelledBeforeStart: an already-cancelled context stops every entry
// point before real work happens.
func TestCancelledBeforeStart(t *testing.T) {
	sys, root := forwardRoot(t, 2, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := explore.BuildGraph(sys, []system.State{root}, explore.BuildOptions{Workers: 1, Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("BuildGraph: %v", err)
	}
	if _, err := explore.Refute(sys, 1, explore.RefuteOptions{Build: explore.BuildOptions{Workers: 1, Ctx: ctx}}); !errors.Is(err, context.Canceled) {
		t.Errorf("Refute: %v", err)
	}
	cfgs := []explore.RunConfig{{Inputs: map[int]string{0: "0", 1: "1"}}}
	if _, err := explore.RunBatchCtx(ctx, sys, cfgs, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("RunBatchCtx: %v", err)
	}
	// nil context: never cancels.
	if _, err := explore.RunBatchCtx(nil, sys, cfgs, 1); err != nil {
		t.Errorf("RunBatchCtx(nil): %v", err)
	}
}

// TestLimitErrorTyped: the vertex budget surfaces as *LimitError carrying
// the partial count, still matching the ErrStateExplosion sentinel and the
// historical message, on every level body × store combination.
func TestLimitErrorTyped(t *testing.T) {
	explore.SetMinPooledLevel(t, 1)
	sys, root := forwardRoot(t, 2, 0)
	for _, workers := range []int{1, 4} {
		for _, store := range []explore.StoreKind{explore.StoreDense, explore.StoreSpill} {
			_, err := explore.BuildGraph(sys, []system.State{root},
				explore.BuildOptions{MaxStates: 3, Workers: workers, Store: store, SpillDir: t.TempDir()})
			if !errors.Is(err, explore.ErrStateExplosion) {
				t.Fatalf("workers=%d store=%v: not ErrStateExplosion: %v", workers, store, err)
			}
			var le *explore.LimitError
			if !errors.As(err, &le) {
				t.Fatalf("workers=%d store=%v: not a *LimitError: %v", workers, store, err)
			}
			if le.Limit != 3 || le.Explored != 3 {
				t.Errorf("workers=%d store=%v: LimitError{Limit:%d, Explored:%d}, want 3/3",
					workers, store, le.Limit, le.Explored)
			}
			if want := "explore: state limit exceeded: > 3 states"; err.Error() != want {
				t.Errorf("message %q, want %q", err.Error(), want)
			}
		}
	}
}

// TestBuildGraphPanicReleasesStore: a panic passing through BuildGraph —
// here out of the progress callback, mid-build — unwinds through the same
// release as an error return, so the spill store's descriptor is
// closed by the time a caller recovers it, not whenever a finalizer runs.
func TestBuildGraphPanicReleasesStore(t *testing.T) {
	explore.SetMinPooledLevel(t, 1)
	openFiles := func() int {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no descriptor table to count: %v", err)
		}
		return len(entries)
	}
	sys, root := forwardRoot(t, 3, 0)
	dir := t.TempDir()
	before := openFiles()
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("workers=%d: the callback's panic did not reach the caller", workers)
				}
			}()
			_, _ = explore.BuildGraph(sys, []system.State{root}, explore.BuildOptions{
				Workers: workers, Store: explore.StoreSpill, SpillDir: dir,
				Progress: func(p explore.Progress) {
					if p.Level == 2 {
						panic("injected mid-build")
					}
				},
			})
		}()
		if after := openFiles(); after > before {
			t.Errorf("workers=%d: %d descriptors open after the panic, %d before", workers, after, before)
		}
	}
}
