package boosting_test

// Façade-level option validation and spill-store plumbing tests: negative
// knob values must clamp to the defaults instead of leaking into the
// engines, WithSpillDir must route graph builds through the disk-spilling
// backend, and an unusable spill directory must surface as an ordinary
// error.

import (
	"errors"
	"testing"

	"github.com/ioa-lab/boosting"
)

// TestNegativeOptionsClamped: WithMaxStates(-1) must behave exactly like
// the default budget — a full exhaustive build, not an immediate
// *LimitError — and WithWorkers(-5) must behave like the worker default,
// on both engines and with the serial reference graph reproduced exactly.
func TestNegativeOptionsClamped(t *testing.T) {
	ref, err := boosting.New("forward", 2, 0, boosting.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.ClassifyInits()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, -5} {
		chk, err := boosting.New("forward", 2, 0,
			boosting.WithWorkers(workers), boosting.WithMaxStates(-1))
		if err != nil {
			t.Fatal(err)
		}
		got, err := chk.ClassifyInits()
		if err != nil {
			var le *boosting.LimitError
			if errors.As(err, &le) {
				t.Fatalf("workers=%d: WithMaxStates(-1) tripped %v; negatives must clamp to the default budget", workers, err)
			}
			t.Fatalf("workers=%d: %v", workers, err)
		}
		assertGraphsIdentical(t, "negative-options", want.Graph, got.Graph)
	}
}

// TestSpillDirOption: WithSpillDir selects the spill backend, produces the
// dense-identical graph, and exposes spill statistics that account for
// every vertex and the edge file.
func TestSpillDirOption(t *testing.T) {
	ref, err := boosting.New("forward", 3, 0, boosting.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.ClassifyInits()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := boosting.GraphSpillStats(want.Graph); ok {
		t.Fatal("dense graph reported spill stats")
	}
	chk, err := boosting.New("forward", 3, 0,
		boosting.WithWorkers(1), boosting.WithSpillDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := chk.ClassifyInits()
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsIdentical(t, "spilldir", want.Graph, got.Graph)
	stats, ok := boosting.GraphSpillStats(got.Graph)
	if !ok {
		t.Fatal("spill graph reported no spill stats")
	}
	if stats.States != got.Graph.Size() {
		t.Errorf("spill stats cover %d states, graph has %d", stats.States, got.Graph.Size())
	}
	if stats.EdgeBytes == 0 {
		t.Error("spill store wrote zero edge bytes")
	}
	if stats.SpillBytes != 0 || stats.Reads != 0 {
		t.Errorf("an ephemeral build reports %d fingerprint bytes and %d reads", stats.SpillBytes, stats.Reads)
	}
	// Deterministic release: closing a spill graph frees its descriptor,
	// and closing an in-memory graph is a nil no-op.
	if err := boosting.CloseGraph(got.Graph); err != nil {
		t.Errorf("CloseGraph(spill) = %v", err)
	}
	if err := boosting.CloseGraph(want.Graph); err != nil {
		t.Errorf("CloseGraph(dense) = %v", err)
	}
}

// TestSpillExhaustiveForwardN5 pins the exhaustive forward n=5 analysis on
// the spill store: 14754 states / 103926 edges from all monotone
// initializations, 868 / 6180 under symmetry reduction, built with edges
// living on disk. The CI spill job runs this under a low GOMEMLIMIT.
func TestSpillExhaustiveForwardN5(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive n=5 build skipped in -short mode")
	}
	golden := []struct {
		sym           bool
		states, edges int
	}{
		{false, 14754, 103926},
		{true, 868, 6180},
	}
	for _, g := range golden {
		opts := []boosting.Option{boosting.WithSpillDir(t.TempDir())}
		if g.sym {
			opts = append(opts, boosting.WithSymmetry())
		}
		chk, err := boosting.New("forward", 5, 0, opts...)
		if err != nil {
			t.Fatal(err)
		}
		c, err := chk.ClassifyInits()
		if err != nil {
			t.Fatalf("sym=%v: %v", g.sym, err)
		}
		if c.Graph.Size() != g.states || c.Graph.Edges() != g.edges {
			t.Errorf("sym=%v: %d states / %d edges, want %d / %d",
				g.sym, c.Graph.Size(), c.Graph.Edges(), g.states, g.edges)
		}
		if c.BivalentIndex < 0 {
			t.Errorf("sym=%v: no bivalent initialization found", g.sym)
		}
	}
}

// TestSpillExhaustiveForwardN6 pins the exhaustive forward n=6 frontier the
// spilled adjacency opened (ROADMAP/E29): 1764 states / 15084 edges under
// symmetry reduction, with edges living on disk, graph-identical
// to the dense build. The CI spill job runs this under GOMEMLIMIT=64MiB;
// witness links off and on must agree on every count and valence.
func TestSpillExhaustiveForwardN6(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive n=6 build skipped in -short mode")
	}
	const wantStates, wantEdges = 1764, 15084
	ref, err := boosting.New("forward", 6, 0, boosting.WithWorkers(1), boosting.WithSymmetry())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.ClassifyInits()
	if err != nil {
		t.Fatal(err)
	}
	if want.Graph.Size() != wantStates || want.Graph.Edges() != wantEdges {
		t.Fatalf("dense reference: %d states / %d edges, want %d / %d",
			want.Graph.Size(), want.Graph.Edges(), wantStates, wantEdges)
	}
	for _, noWitness := range []bool{false, true} {
		opts := []boosting.Option{boosting.WithSpillDir(t.TempDir()), boosting.WithSymmetry()}
		if noWitness {
			opts = append(opts, boosting.WithoutWitnesses())
		}
		chk, err := boosting.New("forward", 6, 0, opts...)
		if err != nil {
			t.Fatal(err)
		}
		c, err := chk.ClassifyInits()
		if err != nil {
			t.Fatalf("nowitness=%v: %v", noWitness, err)
		}
		assertGraphsIdentical(t, "spill-n6", want.Graph, c.Graph)
		if c.BivalentIndex != want.BivalentIndex {
			t.Errorf("nowitness=%v: bivalent index %d, want %d", noWitness, c.BivalentIndex, want.BivalentIndex)
		}
		stats, ok := boosting.GraphSpillStats(c.Graph)
		if !ok {
			t.Fatal("spill graph reported no spill stats")
		}
		if stats.EdgeBytes == 0 {
			t.Errorf("nowitness=%v: spilled adjacency wrote zero edge bytes", noWitness)
		}
		if err := boosting.CloseGraph(c.Graph); err != nil {
			t.Errorf("nowitness=%v: CloseGraph = %v", noWitness, err)
		}
	}
}

// TestWithoutWitnessesConflicts: WithoutWitnesses keeps counts and valences
// (Explore/ClassifyInits work, WitnessPath is nil), while the
// witness-producing analyses reject the combination with a typed
// *ConflictError instead of returning empty witnesses — unless the graph
// phases are skipped, which makes the combination legitimate.
func TestWithoutWitnessesConflicts(t *testing.T) {
	chk, err := boosting.New("forward", 2, 0,
		boosting.WithWorkers(1), boosting.WithoutWitnesses())
	if err != nil {
		t.Fatal(err)
	}
	c, err := chk.ClassifyInits()
	if err != nil {
		t.Fatalf("ClassifyInits without witnesses: %v", err)
	}
	full, err := boosting.New("forward", 2, 0, boosting.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.ClassifyInits()
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsIdentical(t, "nowitness", want.Graph, c.Graph)
	if got := c.Graph.WitnessPath(boosting.StateID(c.Graph.Size() - 1)); got != nil {
		t.Errorf("WitnessPath on a witness-free graph = %v, want nil", got)
	}
	var ce *boosting.ConflictError
	if _, err := chk.FindHook(c.Graph, c.Roots[c.BivalentIndex]); !errors.As(err, &ce) {
		t.Errorf("FindHook without witnesses: got %v, want *ConflictError", err)
	}
	if _, err := chk.Refute(1); !errors.As(err, &ce) {
		t.Errorf("Refute without witnesses: got %v, want *ConflictError", err)
	} else if ce.Option == "" || ce.With != "Refute" {
		t.Errorf("ConflictError fields not populated: %+v", ce)
	}
	if _, err := chk.RefuteKSet(1, 1); !errors.As(err, &ce) {
		t.Errorf("RefuteKSet without witnesses: got %v, want *ConflictError", err)
	}
	// With the graph phases skipped nothing reconstructs witnesses, so the
	// combination is accepted and the failure scenarios still run.
	skipped, err := boosting.New("forward", 2, 0,
		boosting.WithWorkers(1), boosting.WithoutWitnesses(), boosting.WithoutGraphAnalysis())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := skipped.Refute(1); err != nil {
		t.Errorf("Refute without witnesses + WithoutGraphAnalysis: %v", err)
	}
}

// TestSpillDirUnusable: an unusable spill directory fails the build with an
// ordinary error (not a *LimitError, not a panic) through the façade.
func TestSpillDirUnusable(t *testing.T) {
	chk, err := boosting.New("forward", 2, 0, boosting.WithSpillDir("/nonexistent/spill/dir"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = chk.Explore(map[int]string{0: "0", 1: "1"})
	if err == nil {
		t.Fatal("Explore with unusable spill dir succeeded")
	}
	var le *boosting.LimitError
	if errors.As(err, &le) {
		t.Fatalf("spill-dir failure misreported as a state-budget overflow: %v", err)
	}
}
