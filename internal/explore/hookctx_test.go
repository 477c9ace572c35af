package explore_test

// Context-cancellation coverage for the Fig. 3 hook construction: the
// refuter's context reaches FindHook, which must stop mid-scan once the
// context is cancelled — including when the cancel comes from inside a
// streaming progress callback earlier in the pipeline.

import (
	"context"
	"errors"
	"testing"

	"github.com/ioa-lab/boosting/internal/explore"
	"github.com/ioa-lab/boosting/internal/protocols"
	"github.com/ioa-lab/boosting/internal/service"
	"github.com/ioa-lab/boosting/internal/system"
)

func TestFindHookHonorsContext(t *testing.T) {
	sys, err := protocols.BuildForward(3, 0, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	c, err := explore.ClassifyInits(sys, explore.BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	root := c.Roots[c.BivalentIndex]

	// A live context does not interfere; a nil context never cancels.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := explore.FindHook(ctx, c.Graph, root); err != nil {
		t.Fatalf("live context: %v", err)
	}
	if _, err := explore.FindHook(nil, c.Graph, root); err != nil {
		t.Fatalf("nil context: %v", err)
	}

	// Cancel from inside a streaming progress callback — the documented way
	// to stop a long analysis — and verify the cancellation reaches a hook
	// construction run with the same context, mid-scan.
	st, err := explore.ApplyInputs(sys, explore.MonotoneAssignment(sys, 1))
	if err != nil {
		t.Fatal(err)
	}
	_, buildErr := explore.BuildGraph(sys, []system.State{st}, explore.BuildOptions{
		Workers: 1,
		Ctx:     ctx,
		Progress: func(p explore.Progress) {
			if p.Level == 1 {
				cancel()
			}
		},
	})
	if !errors.Is(buildErr, context.Canceled) {
		t.Fatalf("build after in-callback cancel: %v, want context.Canceled", buildErr)
	}
	if _, err := explore.FindHook(ctx, c.Graph, root); !errors.Is(err, context.Canceled) {
		t.Errorf("FindHook after in-callback cancel: %v, want context.Canceled", err)
	}
}
