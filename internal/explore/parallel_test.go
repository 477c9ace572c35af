package explore_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/ioa-lab/boosting/internal/allocpin"
	"github.com/ioa-lab/boosting/internal/explore"
	"github.com/ioa-lab/boosting/internal/protocols"
	"github.com/ioa-lab/boosting/internal/service"
	"github.com/ioa-lab/boosting/internal/symmetry"
	"github.com/ioa-lab/boosting/internal/system"
)

// parallelWorkers is the worker count used by the fan-out parity tests: high
// enough that several goroutines really do share one System at once, even on
// small machines.
const parallelWorkers = 8

// seedSystems enumerates the seed protocols whose failure-free graphs and
// hooks the determinism tests pin.
func seedSystems(t *testing.T) map[string]*system.System {
	t.Helper()
	out := map[string]*system.System{
		"forward-2-0": mustForward(t, 2, 0, service.Adversarial),
		"forward-3-1": mustForward(t, 3, 1, service.Adversarial),
		// 2486 states in levels hundreds wide: one worker meets the same
		// fresh successor several times and so do different workers.
		"forward-4-0": mustForward(t, 4, 0, service.Adversarial),
	}
	tob, err := protocols.BuildTOBConsensus(2, 0, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	out["tob-2-0"] = tob
	rv, err := protocols.BuildRegisterVote(2)
	if err != nil {
		t.Fatal(err)
	}
	out["registervote-2"] = rv
	return out
}

// TestBuildGraphDeterministicAcrossWorkers holds the Workers knob to its
// contract: it bounds only the analyses' fan-outs, so the classification is
// identical — same fingerprint, edges, valence and witness path per ID — for
// one worker, an even split (2), an uneven one (3) and more workers than this
// machine has CPUs (8), on every seed protocol. The last two rows rerun the
// widest seed on the spill store and on the quotient.
func TestBuildGraphDeterministicAcrossWorkers(t *testing.T) {
	type row struct {
		sys *system.System
		opt explore.BuildOptions
	}
	rows := map[string]row{}
	for name, sys := range seedSystems(t) {
		rows[name] = row{sys: sys}
	}
	wide := rows["forward-4-0"].sys
	canon, err := symmetry.New(wide, protocols.ForwardSymmetry(4))
	if err != nil {
		t.Fatal(err)
	}
	rows["forward-4-0-spill"] = row{wide, explore.BuildOptions{Store: explore.StoreSpill, SpillDir: t.TempDir()}}
	rows["forward-4-0-symmetry"] = row{wide, explore.BuildOptions{Symmetry: canon}}
	classify := func(t *testing.T, r row, workers int) *explore.InitClassification {
		t.Helper()
		r.opt.Workers = workers
		c, err := explore.ClassifyInits(r.sys, r.opt)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() }) // a read-only spill store: nothing left to lose
		return c
	}
	for name, r := range rows {
		t.Run(name, func(t *testing.T) {
			serial := classify(t, r, 1)
			for _, workers := range []int{2, 3, parallelWorkers} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					sameClassification(t, serial, classify(t, r, workers))
				})
			}
		})
	}
}

// sameClassification fails unless the two engines assigned identical
// StateIDs: same fingerprint, valence, outgoing edges and BFS-tree witness
// path per ID — the graphs are identical, not merely isomorphic — and the
// Lemma 4 classification built on top agrees.
func sameClassification(t *testing.T, serial, parallel *explore.InitClassification) {
	t.Helper()
	gs, gp := serial.Graph, parallel.Graph
	if gs.Size() != gp.Size() {
		t.Fatalf("sizes differ: serial %d, parallel %d", gs.Size(), gp.Size())
	}
	if !slices.Equal(gs.Roots(), gp.Roots()) {
		t.Fatalf("roots differ: %v vs %v", gs.Roots(), gp.Roots())
	}
	for id := 0; id < gs.Size(); id++ {
		sid := explore.StateID(id)
		if fs, fp2 := gs.Fingerprint(sid), gp.Fingerprint(sid); fs != fp2 {
			t.Fatalf("fingerprint of %d differs: %.24q... vs %.24q...", id, fs, fp2)
		}
		if vs, vp := gs.Valence(sid), gp.Valence(sid); vs != vp {
			t.Fatalf("valence of %d differs: serial %v, parallel %v", id, vs, vp)
		}
		if es, ep := gs.Succs(sid), gp.Succs(sid); !slices.Equal(es, ep) {
			t.Fatalf("edges of %d differ: %+v vs %+v", id, es, ep)
		}
		if ws, wp := gs.WitnessPath(sid), gp.WitnessPath(sid); !slices.Equal(ws, wp) {
			t.Fatalf("witness paths of %d differ: %+v vs %+v", id, ws, wp)
		}
	}
	if serial.BivalentIndex != parallel.BivalentIndex {
		t.Errorf("bivalent index: serial %d, parallel %d", serial.BivalentIndex, parallel.BivalentIndex)
	}
	if !slices.Equal(serial.Valences, parallel.Valences) {
		t.Errorf("α valences: serial %v, parallel %v", serial.Valences, parallel.Valences)
	}
}

// walkGraph visits every vertex reachable from start once.
func walkGraph(t *testing.T, g *explore.Graph, start explore.StateID, visit func(id explore.StateID)) {
	t.Helper()
	seen := make([]bool, g.Size())
	queue := []explore.StateID{start}
	seen[start] = true
	for head := 0; head < len(queue); head++ {
		id := queue[head]
		visit(id)
		for _, e := range g.Succs(id) {
			if !seen[e.To] {
				seen[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
}

// TestBuildGraphBudgetSweep walks the vertex budget over its whole
// interesting range on forward n=3 f=1 (4 roots, 410 vertices, 1734 edges):
// every budget below the size stops at *LimitError{Limit: budget, Explored:
// budget} and the size builds the whole graph.
func TestBuildGraphBudgetSweep(t *testing.T) {
	sys := mustForward(t, 3, 1, service.Adversarial)
	for budget := 4; budget <= 410; budget++ {
		c, err := explore.ClassifyInits(sys, explore.BuildOptions{MaxStates: budget})
		want := fmt.Sprintf("limit %d after %d explored", budget, budget)
		if budget == 410 {
			want = "410 states, 1734 edges"
		}
		var got string
		var limit *explore.LimitError
		switch {
		case errors.As(err, &limit):
			got = fmt.Sprintf("limit %d after %d explored", limit.Limit, limit.Explored)
		case err != nil:
			t.Fatalf("budget %d: %v", budget, err)
		default:
			got = fmt.Sprintf("%d states, %d edges", c.Graph.Size(), c.Graph.Edges())
		}
		if got != want {
			t.Fatalf("MaxStates %d: %s, want %s", budget, got, want)
		}
	}
}

// TestWitnessPathsReplay checks that the BFS-tree predecessors form valid
// paths: every vertex's witness path must replay edge-by-edge from one of the
// roots.
func TestWitnessPathsReplay(t *testing.T) {
	sys := mustForward(t, 2, 0, service.Adversarial)
	c, err := explore.ClassifyInits(sys, explore.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g := c.Graph
	checked := 0
	walkGraph(t, g, c.Roots[c.BivalentIndex], func(id explore.StateID) {
		path := g.WitnessPath(id)
		for _, root := range g.Roots() {
			if replays(g, root, path, id) {
				checked++
				return
			}
		}
		t.Fatalf("witness path of %d (len %d) replays from no root", id, len(path))
	})
	if checked < 10 {
		t.Fatalf("suspiciously few vertices checked: %d", checked)
	}
}

// TestWitnessPathConcurrent: the first WitnessPath call derives the graph's
// BFS tree, so goroutines that ask a fresh graph at once must share one
// derivation and read the paths a serial reader gets (run under -race).
func TestWitnessPathConcurrent(t *testing.T) {
	sys := mustForward(t, 3, 1, service.Adversarial)
	build := func() *explore.Graph {
		c, err := explore.ClassifyInits(sys, explore.BuildOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return c.Graph
	}
	ref, g := build(), build()
	const readers = 4
	var wg sync.WaitGroup
	paths := make([][][]explore.Edge, readers)
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range explore.StateID(g.Size()) {
				paths[r] = append(paths[r], g.WitnessPath(id))
			}
		}()
	}
	wg.Wait()
	for id := range explore.StateID(ref.Size()) {
		want := ref.WitnessPath(id)
		for r := range readers {
			if !slices.Equal(paths[r][id], want) {
				t.Fatalf("reader %d: witness path of %d is %+v, want %+v", r, id, paths[r][id], want)
			}
		}
	}
}

// replays walks path from start via Succ and reports whether it ends at want.
func replays(g *explore.Graph, start explore.StateID, path []explore.Edge, want explore.StateID) bool {
	cur := start
	for _, e := range path {
		edge, ok := g.Succ(cur, e.Task)
		if !ok || edge.To != e.To {
			return false
		}
		cur = edge.To
	}
	return cur == want
}

// TestFindHookPinned pins the Fig. 3 construction's outcome on every seed
// protocol: the hook by vertex IDs, tasks and valence, or the divergence,
// and the path length.
func TestFindHookPinned(t *testing.T) {
	want := map[string]string{
		"forward-2-0":    "hook {12 perform_0@k0 perform_1@k0 23 22 31 1-valent}, path 2",
		"forward-3-1":    "hook {50 perform_0@k0 perform_1@k0 96 95 139 1-valent}, path 3",
		"forward-4-0":    "hook {210 perform_0@k0 perform_1@k0 401 400 601 1-valent}, path 4",
		"tob-2-0":        "hook {12 perform_0@b0 perform_1@b0 23 22 40 1-valent}, path 2",
		"registervote-2": "divergence {1408 17}, path 17",
	}
	for name, sys := range seedSystems(t) {
		t.Run(name, func(t *testing.T) {
			c, err := explore.ClassifyInits(sys, explore.BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := explore.FindHook(context.Background(), c.Graph, c.Roots[c.BivalentIndex])
			if err != nil {
				t.Fatal(err)
			}
			var got string
			if h := res.Hook; h != nil {
				got = fmt.Sprintf("hook {%d %v %v %d %d %d %v}, path %d", h.Alpha, h.E, h.EPrime, h.AlphaPrime, h.Alpha0, h.Alpha1, h.Valence0, res.PathLen)
			} else {
				got = fmt.Sprintf("divergence %v, path %d", *res.Divergence, res.PathLen)
			}
			if got != want[name] {
				t.Errorf("%s, want %s", got, want[name])
			}
		})
	}
}

// TestRefuteParallelMatchesSerial checks the full refuter produces the same
// report with its failure scenarios fanned out as without, on a refuted
// candidate (Theorem 2), a safety-refuted candidate, and a surviving
// candidate, and the k-set refuter likewise on both sides of the Section 4
// boundary (set-boost refuted at k = 1, surviving at k = 2).
func TestRefuteParallelMatchesSerial(t *testing.T) {
	refute := func(sys *system.System, opt explore.RefuteOptions) (*explore.Report, error) {
		return explore.Refute(sys, 1, opt)
	}
	kSet := func(k, claimed int) func(*system.System, explore.RefuteOptions) (*explore.Report, error) {
		return func(sys *system.System, opt explore.RefuteOptions) (*explore.Report, error) {
			return explore.RefuteKSet(sys, k, claimed, opt)
		}
	}
	for _, tc := range []struct {
		name  string
		build func() (*system.System, error)
		run   func(*system.System, explore.RefuteOptions) (*explore.Report, error)
	}{
		{"forward-2-0", func() (*system.System, error) { return protocols.BuildForward(2, 0, service.Adversarial) }, refute},
		{"forward-2-1", func() (*system.System, error) { return protocols.BuildForward(2, 1, service.Adversarial) }, refute},
		{"registervote-2", func() (*system.System, error) { return protocols.BuildRegisterVote(2) }, refute},
		{"kset-setboost-2-k1", func() (*system.System, error) { return protocols.BuildSetBoost(2) }, kSet(1, 1)},
		{"kset-setboost-2-k2", func() (*system.System, error) { return protocols.BuildSetBoost(2) }, kSet(2, 3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			serial, err := tc.run(sys, explore.RefuteOptions{})
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := tc.run(sys, explore.RefuteOptions{
				Build: explore.BuildOptions{Workers: parallelWorkers},
			})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := parallel.String(), serial.String(); got != want {
				t.Errorf("reports differ:\n--- serial ---\n%s--- parallel ---\n%s", want, got)
			}
		})
	}
}

// TestRunBatchMatchesSerial checks batched fair runs equal one-by-one runs.
func TestRunBatchMatchesSerial(t *testing.T) {
	sys := mustForward(t, 2, 1, service.Adversarial)
	cfgs := []explore.RunConfig{
		{Inputs: map[int]string{0: "0", 1: "1"}},
		{Inputs: map[int]string{0: "1", 1: "1"}},
		{Inputs: map[int]string{0: "0", 1: "1"}, Failures: []explore.FailureEvent{{Round: 0, Proc: 1}}},
		{Inputs: map[int]string{0: "0", 1: "1"}, Failures: []explore.FailureEvent{{Round: 1, Proc: 0}}},
	}
	batch, err := explore.RunBatch(context.Background(), sys, cfgs, parallelWorkers)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(cfgs) {
		t.Fatalf("got %d results for %d configs", len(batch), len(cfgs))
	}
	for i, cfg := range cfgs {
		want, err := explore.RoundRobin(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := batch[i]
		if got.Done != want.Done || got.Diverged != want.Diverged || got.Rounds != want.Rounds {
			t.Errorf("cfg %d: got (done=%v div=%v rounds=%d), want (done=%v div=%v rounds=%d)",
				i, got.Done, got.Diverged, got.Rounds, want.Done, want.Diverged, want.Rounds)
		}
		if sys.Fingerprint(got.Final) != sys.Fingerprint(want.Final) {
			t.Errorf("cfg %d: final states differ", i)
		}
		if len(got.Decisions) != len(want.Decisions) {
			t.Errorf("cfg %d: decisions %v vs %v", i, got.Decisions, want.Decisions)
		}
		for p, v := range want.Decisions {
			if got.Decisions[p] != v {
				t.Errorf("cfg %d: P%d decided %q, want %q", i, p, got.Decisions[p], v)
			}
		}
	}
}

// TestClassifyInitsAllocCeilings pins what a warm forward n=4 ClassifyInits
// may allocate, as a number: 3 639 objects when the pin was taken (6 134
// while each new vertex's key was copied into a string for Intern; 15 068
// before successors were keyed from deltas, when every one of the 17 218
// successors cost a State and only the 2 486 new ones needed it). A graph is
// built on the calling goroutine whatever Workers says, so one ceiling holds
// for one worker and for two. Allocation counts are exact where timings on a
// shared two-CPU host are not.
func TestClassifyInitsAllocCeilings(t *testing.T) {
	sys := mustForward(t, 4, 0, service.Adversarial)
	build := func(workers int) func() {
		return func() {
			if _, err := explore.ClassifyInits(sys, explore.BuildOptions{Workers: workers}); err != nil {
				t.Fatal(err)
			}
		}
	}
	build(1)() // fill the system's cell tables and transition memo
	allocpin.Check(t, "ClassifyInits at Workers: 1", 3, 3820, build(1))
	allocpin.Check(t, "ClassifyInits at Workers: 2", 3, 3820, build(2))
}

// TestColdClassifyInitsAllocCeiling pins what composing a fresh forward n=4
// System and running ClassifyInits on it allocates — what one op of the
// time-to-verdict harness pays, cell tables and transition memo filled from
// cold: 14 336 objects when the pin was taken (16 666 while service buffers
// were maps copied on every transition).
func TestColdClassifyInitsAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("cold interning draws on pooled encode buffers, which the race detector drops at random")
	}
	allocpin.Check(t, "a cold forward n=4 ClassifyInits", 3, 14800, func() {
		sys := mustForward(t, 4, 0, service.Adversarial)
		if _, err := explore.ClassifyInits(sys, explore.BuildOptions{}); err != nil {
			t.Fatal(err)
		}
	})
}
