package explore

// In-package tests for the level loop's one body, expandLevel: how often it
// reads the build's context, and that a cancellation or a panic raised in the
// middle of a level stops the build inside that level.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/ioa-lab/boosting/internal/protocols"
	"github.com/ioa-lab/boosting/internal/service"
	"github.com/ioa-lab/boosting/internal/symmetry"
	"github.com/ioa-lab/boosting/internal/system"
)

// countingCtx counts how often a build reads its context.
type countingCtx struct {
	context.Context
	reads atomic.Int64
}

func (c *countingCtx) Err() error {
	c.reads.Add(1)
	return c.Context.Err()
}

// tripwire canonicalizes like inner (the identity when nil) and calls trip
// when the result is the state with fingerprint fp. The level body
// canonicalizes every successor inside the per-successor step, so the wire
// trips while the vertex that discovers fp is being expanded.
type tripwire struct {
	inner Canonicalizer
	sys   *system.System
	fp    string
	trip  func()
}

func (w tripwire) Canonical(st system.State) system.State {
	st = canonical(w.inner, st)
	if w.sys.Fingerprint(st) == w.fp {
		w.trip()
	}
	return st
}

// levelRows are the graphs the level-body tests build: forward n=3 f=1 and
// n=4, tob n=2, registervote n=2 and the forward n=4 quotient.
type levelRow struct {
	name  string
	sys   *system.System
	canon Canonicalizer // non-nil: build the quotient
}

func levelRows(t *testing.T) []levelRow {
	t.Helper()
	forward4, err := protocols.BuildForward(4, 0, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := symmetry.New(forward4, protocols.ForwardSymmetry(4))
	if err != nil {
		t.Fatal(err)
	}
	forward3, err := protocols.BuildForward(3, 1, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	tob2, err := protocols.BuildTOBConsensus(2, 0, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	vote2, err := protocols.BuildRegisterVote(2)
	if err != nil {
		t.Fatal(err)
	}
	return []levelRow{
		{name: "forward-n3", sys: forward3},
		{name: "forward-n4", sys: forward4},
		{name: "tob-n2", sys: tob2},
		{name: "registervote-n2", sys: vote2},
		{name: "forward-n4-quotient", sys: forward4, canon: canon},
	}
}

// TestLevelStepContextReads pins how promptly a build sees its context: the
// body reads it before expanding every vertex whose ID is a multiple of 64,
// and nowhere else between two progress reports. So a cancellation is seen
// within 64 vertices, whatever the width of the level, and a narrow level
// costs at most one read. TestLevelStepStopsMidLevel relies on the reads
// inside a level wider than 64.
func TestLevelStepContextReads(t *testing.T) {
	for _, r := range levelRows(t) {
		t.Run(r.name, func(t *testing.T) {
			_, roots, err := monotoneRoots(r.sys)
			if err != nil {
				t.Fatal(err)
			}
			ctx := &countingCtx{Context: context.Background()}
			var lo StateID
			seen, levels := int64(0), 0
			_, err = BuildGraph(r.sys, roots, BuildOptions{Symmetry: r.canon, Ctx: ctx, Progress: func(p Progress) {
				hi := StateID(p.States - p.Frontier)
				reads := ctx.reads.Load() - seen
				seen += reads
				if want := int64((hi+63)/64 - (lo+63)/64); reads != want { // the multiples of 64 in [lo, hi)
					t.Errorf("level %d, [%d, %d): the context was read %d times, want %d", p.Level, lo, hi, reads, want)
				}
				lo = hi
				levels++
			}})
			if err != nil {
				t.Fatal(err)
			}
			if levels < 3 {
				t.Fatalf("%d levels: too few to say anything", levels)
			}
		})
	}
}

// TestLevelStepStopsMidLevel raises a cancellation and a panic while forward
// n=4's widest level is expanded, at the first vertex discovered there. Its
// discoverer sits more than 64 IDs before the level's end, so the body reads
// the context again within the level: the cancelled build returns
// context.Canceled without reporting the level, and the panic comes back as a
// *PanicError naming the discoverer's task, on the dense and the spill store.
func TestLevelStepStopsMidLevel(t *testing.T) {
	r := levelRows(t)[1]
	_, roots, err := monotoneRoots(r.sys)
	if err != nil {
		t.Fatal(err)
	}
	lo := []StateID{0} // lo[l] is the first ID of level l
	ref, err := BuildGraph(r.sys, roots, BuildOptions{Progress: func(p Progress) {
		lo = append(lo, StateID(p.States-p.Frontier))
	}})
	if err != nil {
		t.Fatal(err)
	}
	widest := 0
	for l := range len(lo) - 1 {
		if lo[l+1]-lo[l] > lo[widest+1]-lo[widest] {
			widest = l
		}
	}
	wire := lo[widest+1]
	path := ref.WitnessPath(wire)
	by, from := path[len(path)-1].Task, ref.tree.parent[wire]
	if from < lo[widest] || from+64 >= wire {
		t.Fatalf("vertex %d was discovered by %d, level %d is [%d, %d): pick another wire", wire, from, widest, lo[widest], wire)
	}

	t.Run("cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		w := tripwire{sys: r.sys, fp: ref.Fingerprint(wire), trip: cancel}
		levels := 0
		_, err := BuildGraph(r.sys, roots, BuildOptions{Symmetry: w, Ctx: ctx, Progress: func(Progress) { levels++ }})
		if !errors.Is(err, context.Canceled) || levels != widest {
			t.Errorf("cancelled inside level %d: %v after %d levels", widest, err, levels)
		}
	})

	t.Run("panic", func(t *testing.T) {
		for _, store := range []StoreKind{StoreDense, StoreSpill} {
			label := fmt.Sprintf("store=%v", store)
			w := tripwire{sys: r.sys, fp: ref.Fingerprint(wire), trip: func() { panic("tripped") }}
			_, err := BuildGraph(r.sys, roots, BuildOptions{Symmetry: w, Store: store, SpillDir: t.TempDir()})
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Task != by || pe.Value != "tripped" {
				t.Errorf("%s: a panic under %v came back as %v", label, by, err)
			}
		}
	})
}
