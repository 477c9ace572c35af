package explore

// In-package tests for the level loop's two bodies: whatever mix of inline
// and pooled levels builds a graph, it is the same graph per ID, reports the
// same progress, overflows at the same vertex and fails with the same error.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/ioa-lab/boosting/internal/protocols"
	"github.com/ioa-lab/boosting/internal/service"
	"github.com/ioa-lab/boosting/internal/symmetry"
	"github.com/ioa-lab/boosting/internal/system"
)

// countingCtx counts how often a build reads its context. The inline body
// reads it at every 64th ID and the pooled body before every vertex, so the
// reads between two progress reports say which body expanded the level.
type countingCtx struct {
	context.Context
	reads atomic.Int64
}

func (c *countingCtx) Err() error {
	c.reads.Add(1)
	return c.Context.Err()
}

// tripwire canonicalizes like inner (the identity when nil) and calls trip
// when the result is the state with fingerprint fp. Both bodies canonicalize
// every successor inside the per-successor step, so the wire trips at the same
// vertex × task whichever body runs the level.
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

// TestLevelStepInlinePooledParity builds forward n=3 and n=4, tob n=2,
// registervote n=2 and the forward n=4 quotient on dense and spill stores with
// 1, 2 and 3 workers and the pooling width at 1 (every level pooled), at the
// median level width of the graph (narrow levels inline, the wide middle
// pooled, the narrow tail inline again), at its default and out of reach
// (every level inline). Every build must give the one-worker dense graph per
// ID — fingerprints, labelled edges, Targets, predecessor links, valences —
// and the same Progress sequence; every vertex budget must end in the same
// *LimitError or the same graph; and on forward n=4 a panic and a cancellation
// raised mid-level must come back as the same error from either body.
func TestLevelStepInlinePooledParity(t *testing.T) {
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
	type row struct {
		name  string
		sys   *system.System
		canon Canonicalizer // non-nil: build the quotient
		roots []system.State
		ref   *Graph
		want  []Progress
		lo    []StateID // lo[l] is the first ID of level l; lo[len(want)] the graph's size
		alt   int       // the median level width
	}
	rows := []*row{
		{name: "forward-n3", sys: forward3},
		{name: "forward-n4", sys: forward4},
		{name: "tob-n2", sys: tob2},
		{name: "registervote-n2", sys: vote2},
		{name: "forward-n4-quotient", sys: forward4, canon: canon},
	}
	build := func(r *row, opt BuildOptions, reports *[]Progress) (*Graph, error) {
		opt.Symmetry = r.canon
		if reports != nil {
			opt.Progress = func(p Progress) { *reports = append(*reports, p) }
		}
		return BuildGraph(r.sys, r.roots, opt)
	}
	defaultWidth := minPooledLevel
	for _, r := range rows {
		if _, r.roots, err = monotoneRoots(r.sys); err != nil {
			t.Fatal(err)
		}
		if r.ref, err = build(r, BuildOptions{Workers: 1}, &r.want); err != nil {
			t.Fatal(err)
		}
		r.lo = []StateID{0}
		var widths []int
		for _, p := range r.want {
			first := StateID(p.States - p.Frontier)
			widths = append(widths, int(first-r.lo[len(r.lo)-1]))
			r.lo = append(r.lo, first)
		}
		slices.Sort(widths)
		r.alt = widths[len(widths)/2]
	}

	for _, workers := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for _, r := range rows {
				for _, width := range []int{1, r.alt, defaultWidth, math.MaxInt} {
					SetMinPooledLevel(t, width)
					for _, store := range []StoreKind{StoreDense, StoreSpill} {
						label := fmt.Sprintf("%s on %v, levels pooled from %d wide", r.name, store, width)
						var got []Progress
						g, err := build(r, BuildOptions{Workers: workers, Store: store, SpillDir: t.TempDir()}, &got)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						sameGraph(t, label, r.ref, g)
						var want, have []StateID
						for id := range StateID(g.Size()) {
							want, have = r.ref.store.Targets(id, want[:0]), g.store.Targets(id, have[:0])
							if !slices.Equal(have, want) {
								t.Fatalf("%s: Targets(%d) = %v, want %v", label, id, have, want)
							}
						}
						if !slices.Equal(got, r.want) {
							t.Fatalf("%s: progress\n got  %+v\n want %+v", label, got, r.want)
						}
						if err := CloseGraphStore(g); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		})
	}

	t.Run("bodies", func(t *testing.T) {
		// The median row really alternates: narrow levels are expanded inline
		// and wide ones on the pool, and there are inline levels on both
		// sides of the pooled ones.
		r := rows[1]
		SetMinPooledLevel(t, r.alt)
		ctx := &countingCtx{Context: context.Background()}
		var bodies []byte
		seen := int64(0)
		_, err := BuildGraph(r.sys, r.roots, BuildOptions{Workers: 2, Ctx: ctx, Progress: func(p Progress) {
			lo, hi := r.lo[p.Level], r.lo[p.Level+1]
			reads := ctx.reads.Load() - seen
			seen += reads
			inline := int64((hi+63)/64 - (lo+63)/64) // the multiples of 64 in [lo, hi)
			switch pooled := int(hi-lo) >= r.alt; {
			case pooled && reads == int64(hi-lo) && reads != inline:
				bodies = append(bodies, 'P')
			case !pooled && reads == inline:
				bodies = append(bodies, 'i')
			default:
				t.Errorf("level %d, [%d, %d): the context was read %d times", p.Level, lo, hi, reads)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		trimmed := string(slices.Compact(slices.Clone(bodies)))
		if len(bodies) != len(r.want) || len(trimmed) < 3 || trimmed[0] != 'i' || trimmed[len(trimmed)-1] != 'i' {
			t.Errorf("levels ran as %s: want inline, pooled, inline", bodies)
		}
	})

	t.Run("budget", func(t *testing.T) {
		// Every budget on forward n=3 and tob n=2, every 37th on the rest.
		for _, r := range rows {
			step := 37
			if r.ref.Size() < 500 && r.canon == nil {
				step = 1
			}
			outcome := func(budget, workers int) string {
				g, err := build(r, BuildOptions{MaxStates: budget, Workers: workers}, nil)
				var limit *LimitError
				switch {
				case errors.As(err, &limit):
					return fmt.Sprintf("limit %d after %d explored", limit.Limit, limit.Explored)
				case err != nil:
					t.Fatalf("%s: budget %d, workers %d: %v", r.name, budget, workers, err)
				}
				return fmt.Sprintf("%d states, %d edges", g.Size(), g.Edges())
			}
			for budget := len(r.roots); budget <= r.ref.Size(); budget += step {
				want := outcome(budget, 1) // one worker: every level inline
				for _, width := range []int{1, r.alt} {
					SetMinPooledLevel(t, width)
					for _, workers := range []int{2, 3} {
						if got := outcome(budget, workers); got != want {
							t.Fatalf("%s: MaxStates %d, %d workers, pooled from %d wide: %q, inline gave %q", r.name, budget, workers, width, got, want)
						}
					}
				}
			}
		}
	})

	t.Run("errors", func(t *testing.T) {
		// The wire is the first vertex discovered while forward n=4's widest
		// level is expanded, and its discoverer sits more than 64 IDs before
		// the level's end: the inline body reads the context again within the
		// level, as the pooled body does before its next vertex.
		r := rows[1]
		widest := 0
		for l := range r.want {
			if r.lo[l+1]-r.lo[l] > r.lo[widest+1]-r.lo[widest] {
				widest = l
			}
		}
		wire := r.lo[widest+1]
		by := r.ref.store.Pred(wire)
		if by.from < r.lo[widest] || by.from+64 >= wire {
			t.Fatalf("vertex %d was discovered by %d, level %d is [%d, %d): pick another wire", wire, by.from, widest, r.lo[widest], wire)
		}
		for _, workers := range []int{1, 2, 3} {
			for _, width := range []int{1, r.alt, math.MaxInt} {
				SetMinPooledLevel(t, width)
				label := fmt.Sprintf("%d workers, pooled from %d wide", workers, width)
				w := tripwire{sys: r.sys, fp: r.ref.Fingerprint(wire), trip: func() { panic("tripped") }}
				_, err := BuildGraph(r.sys, r.roots, BuildOptions{Workers: workers, Symmetry: w})
				var pe *PanicError
				if !errors.As(err, &pe) || pe.Task != by.task || pe.Value != "tripped" {
					t.Errorf("%s: a panic under %v came back as %v", label, by.task, err)
				}

				ctx, cancel := context.WithCancel(context.Background())
				w.trip = cancel
				levels := 0
				_, err = BuildGraph(r.sys, r.roots, BuildOptions{Workers: workers, Symmetry: w, Ctx: ctx,
					Progress: func(Progress) { levels++ }})
				if !errors.Is(err, context.Canceled) || levels != widest {
					t.Errorf("%s: cancelled inside level %d: %v after %d levels", label, widest, err, levels)
				}
			}
		}
	})
}
