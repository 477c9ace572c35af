package boosting_test

// Façade-level tests of the durable graph store (WithGraphDir,
// Checker.OpenGraph): for EVERY registry protocol with a
// finite failure-free graph, the durable build must be identical to the
// ephemeral reference, the committed directory must reopen — without
// exploring a state — into the identical graph, and identity mismatches
// must rebuild rather than serve a stale graph. Plus the explicit
// conflict matrix of WithGraphDir. (Checker.ClassifyReopened is driven in
// policy_variant_test.go.)

import (
	"errors"
	"testing"

	"github.com/ioa-lab/boosting"
)

// durableN picks a per-protocol system size that keeps the failure-free
// graph comfortably finite for the all-protocols sweep.
func durableN(name string) int {
	switch name {
	case "fdboost", "suspectcollector", "evperfect", "floodset-p":
		return 3
	default:
		return 2
	}
}

// TestDurableFacadeParityAllProtocols is the reopen-parity acceptance
// suite over the whole registry: for every protocol family whose
// failure-free graph is finite, (1) the durable ClassifyInits build
// equals the ephemeral reference per ID and per edge, (2) a second
// checker over the same candidate reopens the committed directory
// without exploring — zero progress reports — into the identical graph,
// and (3) OpenGraph reattaches it directly.
func TestDurableFacadeParityAllProtocols(t *testing.T) {
	for _, info := range boosting.Protocols() {
		if info.SkipsGraphAnalysis {
			// Infinite failure-free graphs: there is no finite graph to
			// persist. WithGraphDir composes with these families only
			// through state-capped Explore, not the Lemma 4 sweep.
			continue
		}
		t.Run(info.Name, func(t *testing.T) {
			n := durableN(info.Name)
			ref, err := boosting.New(info.Name, n, 0, boosting.WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.ClassifyInits()
			if err != nil {
				t.Fatal(err)
			}
			defer want.Close()

			dir := t.TempDir()
			built, err := boosting.New(info.Name, n, 0,
				boosting.WithWorkers(1), boosting.WithGraphDir(dir))
			if err != nil {
				t.Fatal(err)
			}
			got, err := built.ClassifyInits()
			if err != nil {
				t.Fatal(err)
			}
			assertGraphsIdentical(t, "durable build", want.Graph, got.Graph)
			if m, ok := boosting.GraphManifest(got.Graph); !ok {
				t.Error("durable build carries no manifest")
			} else if m.States != want.Graph.Size() || m.Edges != want.Graph.Edges() {
				t.Errorf("manifest records %d/%d, graph has %d/%d",
					m.States, m.Edges, want.Graph.Size(), want.Graph.Edges())
			}
			if err := got.Close(); err != nil {
				t.Fatal(err)
			}
			if !boosting.HasGraph(dir) {
				t.Fatal("no committed manifest after durable build")
			}

			// Same candidate, fresh checker: the sweep must REOPEN, not
			// rebuild — observable as zero per-level progress reports.
			var levels int
			again, err := boosting.New(info.Name, n, 0,
				boosting.WithWorkers(1), boosting.WithGraphDir(dir),
				boosting.WithProgress(func(boosting.Progress) { levels++ }))
			if err != nil {
				t.Fatal(err)
			}
			reGot, err := again.ClassifyInits()
			if err != nil {
				t.Fatal(err)
			}
			if levels != 0 {
				t.Errorf("reopen explored: %d progress reports", levels)
			}
			assertGraphsIdentical(t, "reopened sweep", want.Graph, reGot.Graph)
			if reGot.BivalentIndex != want.BivalentIndex {
				t.Errorf("bivalent index %d, want %d", reGot.BivalentIndex, want.BivalentIndex)
			}
			if err := reGot.Close(); err != nil {
				t.Fatal(err)
			}

			// Direct reattach.
			opened, err := ref.OpenGraph(dir)
			if err != nil {
				t.Fatal(err)
			}
			assertGraphsIdentical(t, "OpenGraph", want.Graph, opened)
			if err := boosting.CloseGraph(opened); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDurableFacadeRebuildOnMismatch: a directory committed by a
// different candidate (same shape, different resilience) is rebuilt in
// place, not served stale.
func TestDurableFacadeRebuildOnMismatch(t *testing.T) {
	dir := t.TempDir()
	first, err := boosting.New("forward", 2, 0,
		boosting.WithWorkers(1), boosting.WithGraphDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	c1, err := first.ClassifyInits()
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// f=1 has a different canonical identity; the old manifest must lose.
	var levels int
	second, err := boosting.New("forward", 2, 1,
		boosting.WithWorkers(1), boosting.WithGraphDir(dir),
		boosting.WithProgress(func(boosting.Progress) { levels++ }))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := second.ClassifyInits()
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if levels == 0 {
		t.Error("identity mismatch served the stale graph instead of rebuilding")
	}
	ref, err := boosting.New("forward", 2, 1, boosting.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.ClassifyInits()
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	assertGraphsIdentical(t, "rebuilt", want.Graph, c2.Graph)
}

// TestWithGraphDirConflicts is the explicit conflict matrix: every
// combination the durable store cannot honor surfaces as a typed
// *ConflictError naming both sides, from New for registry checkers and
// from the first graph-building method for NewFromSystem checkers.
func TestWithGraphDirConflicts(t *testing.T) {
	cases := []struct {
		name string
		opts []boosting.Option
		with string
	}{
		{
			name: "spilldir",
			opts: []boosting.Option{boosting.WithGraphDir("/tmp/g"), boosting.WithSpillDir("/tmp/s")},
			with: "WithSpillDir",
		},
		{
			name: "non-spill store",
			opts: []boosting.Option{boosting.WithGraphDir("/tmp/g"), boosting.WithStore(boosting.DenseStore)},
			with: "WithStore",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := boosting.New("forward", 2, 0, tc.opts...)
			var cerr *boosting.ConflictError
			if !errors.As(err, &cerr) {
				t.Fatalf("New: want *ConflictError, got %T: %v", err, err)
			}
			if cerr.With == "" || cerr.Option == "" {
				t.Errorf("conflict does not name both sides: %+v", cerr)
			}

			// NewFromSystem cannot return an error; the first sweep must.
			donor, err := boosting.New("forward", 2, 0)
			if err != nil {
				t.Fatal(err)
			}
			chk := boosting.NewFromSystem(donor.System(), tc.opts...)
			_, err = chk.ClassifyInits()
			if !errors.As(err, &cerr) {
				t.Fatalf("ClassifyInits: want *ConflictError, got %T: %v", err, err)
			}
		})
	}

	// Refutations build several graphs; one durable directory holds one.
	chk, err := boosting.New("forward", 2, 0, boosting.WithGraphDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	var cerr *boosting.ConflictError
	if _, err := chk.Refute(1); !errors.As(err, &cerr) {
		t.Fatalf("Refute on durable checker: want *ConflictError, got %v", err)
	}
}
