package explore

// In-package tests for the spill backend's adjacency and the uniform bounds
// contract of the store surface: every read accessor of the vertex store and
// of both adjacencies must be total (zero value / ok == false beyond Len(),
// never a panic), and successor blocks must round-trip through the edge file
// whether sealed or pending.

import (
	"errors"
	"testing"

	"github.com/ioa-lab/boosting/internal/protocols"
	"github.com/ioa-lab/boosting/internal/service"
	"github.com/ioa-lab/boosting/internal/system"
)

// allBackends builds one empty graph per adjacency backend for a system, each
// on a vertex store whose probe table starts at two slots so that a small
// graph exercises several table growths. Edge labels are sys's own, so the
// graphs take edges of graphs built on sys only.
func allBackends(t *testing.T, sys *system.System) []struct {
	name string
	g    *Graph
} {
	t.Helper()
	dense := newDenseStore(sys, true)
	dense.table = make([]uint32, 2)
	vertices := newDenseStore(sys, true)
	vertices.table = make([]uint32, 2)
	spill, err := newSpillEdges(vertices, t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = spill.efile.Close() })
	return []struct {
		name string
		g    *Graph
	}{
		{"dense", &Graph{sys: sys, store: dense, adj: &packedAdjacency{sys: sys, segCap: edgeSegment}}},
		{"spill", &Graph{sys: sys, store: vertices, adj: spill}},
	}
}

// packedSuccs returns the edges out of a vertex of a dense graph as its store
// holds them — the write type of SetSuccs. Their labels are the graph's
// System's, so they may be handed only to a store built on that System.
func packedSuccs(g *Graph, id StateID) []packedEdge {
	return g.adj.(*packedAdjacency).run(id)
}

// fillPrefix interns the first n vertices of a dense reference graph into a
// graph on the same System and records their adjacency in the contract's
// order (one SetSuccs per vertex, increasing IDs), with a seal partway
// through so the spill backend serves blocks from both the edge file and the
// pending buffer.
func fillPrefix(ref, g *Graph, n int) {
	var buf []byte
	for id := range StateID(n) {
		st, _ := ref.State(id)
		buf = g.store.AppendKey(buf[:0], st)
		g.store.Intern(buf, st, packedEdge{to: noState})
	}
	for id := range StateID(n) {
		g.adj.SetSuccs(id, packedSuccs(ref, id))
		if int(id) == n/2 {
			g.adj.SealLevel()
		}
	}
}

// TestStoreBoundsUniform probes every read accessor of the vertex store and
// of both adjacencies at Len() and beyond: out-of-range IDs must yield zero
// values, uniformly — EdgesFrom and Targets included (an empty sequence
// beyond Len(), never a panic).
func TestStoreBoundsUniform(t *testing.T) {
	sys, err := protocols.BuildForward(2, 0, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := BuildGraph(sys, []systemState{stateAfterInputs(t, sys)}, BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range allBackends(t, sys) {
		// Populate with a real prefix of the graph so in-range behaviour is
		// also checked, then probe past the end.
		const n = 10
		fillPrefix(dense, b.g, n)
		if got := b.g.store.Len(); got != n {
			t.Fatalf("%s: Len() = %d, want %d", b.name, got, n)
		}
		for _, id := range []StateID{StateID(n), StateID(n + 5), ^StateID(0)} {
			if _, ok := b.g.store.State(id); ok {
				t.Errorf("%s: State(%d) ok beyond Len()", b.name, id)
			}
			if fp := b.g.store.Fingerprint(id); fp != "" {
				t.Errorf("%s: Fingerprint(%d) = %q beyond Len(), want \"\"", b.name, id, fp)
			}
			for range b.g.adj.EdgesFrom(id) {
				t.Errorf("%s: EdgesFrom(%d) yielded an edge beyond Len()", b.name, id)
			}
			if got := b.g.adj.Targets(id, nil); got != nil {
				t.Errorf("%s: Targets(%d) = %v beyond Len()", b.name, id, got)
			}
			if p := b.g.store.Pred(id); p.has || p.from != 0 {
				t.Errorf("%s: Pred(%d) non-zero beyond Len()", b.name, id)
			}
		}
		// Lookups are total too: bytes of the wrong length, a well-formed
		// key of no vertex, and strings that are no fingerprint of this
		// system all miss.
		noVertex := b.g.store.AppendKey(nil, sys.InitialState())
		for _, key := range [][]byte{nil, []byte("no such key"), noVertex[:len(noVertex)-1], noVertex} {
			if _, ok := b.g.store.Lookup(key); ok {
				t.Errorf("%s: Lookup(%q) succeeded", b.name, key)
			}
		}
		fp0 := dense.Fingerprint(0)
		for _, fp := range []string{"", "no such fingerprint", fp0[:len(fp0)-1], fp0 + fp0, sys.Fingerprint(sys.InitialState())} {
			if _, ok := b.g.store.LookupFingerprint(fp); ok {
				t.Errorf("%s: LookupFingerprint(%q) succeeded", b.name, fp)
			}
		}
		// In-range accessors still resolve after the probes, and the
		// recorded adjacency reads back exactly, sealed or pending.
		if fp0 := b.g.store.Fingerprint(0); fp0 != dense.Fingerprint(0) {
			t.Errorf("%s: Fingerprint(0) diverged after out-of-range probes", b.name)
		}
		for id := 0; id < n; id++ {
			want := dense.Succs(StateID(id))
			var got []Edge
			for e := range b.g.adj.EdgesFrom(StateID(id)) {
				got = append(got, e)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: EdgesFrom(%d) yielded %d edges, want %d", b.name, id, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Errorf("%s: EdgesFrom(%d)[%d] = %+v, want %+v", b.name, id, j, got[j], want[j])
				}
			}
		}
	}
}

// TestSpillAdjacencyRotation drives the edge spill file through forced
// rotations — SealLevel after every few vertices, like many small BFS
// levels — and asserts every successor block round-trips byte-exactly
// through the delta-varint codec, whether served from the pending buffer
// or read back from disk, with the stats accounting for the traffic.
func TestSpillAdjacencyRotation(t *testing.T) {
	sys, err := protocols.BuildForward(2, 0, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := BuildGraph(sys, []systemState{stateAfterInputs(t, sys)}, BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	vertices := newDenseStore(sys, true)
	sp, err := newSpillEdges(vertices, t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer sp.efile.Close()
	var buf []byte
	for id := 0; id < dense.Size(); id++ {
		st, _ := dense.State(StateID(id))
		buf = vertices.AppendKey(buf[:0], st)
		vertices.Intern(buf, st, packedEdge{to: noState})
	}
	// Record the real graph's adjacency, sealing every 3 vertices so the
	// read-back below crosses the pending/disk boundary many times. The
	// final 2 vertices stay pending (no trailing seal).
	for id := 0; id < dense.Size(); id++ {
		sp.SetSuccs(StateID(id), packedSuccs(dense, StateID(id)))
		if id%3 == 2 && id < dense.Size()-2 {
			sp.SealLevel()
		}
	}
	if sp.flushedOff == 0 {
		t.Fatal("no edge blocks were sealed to disk")
	}
	if len(sp.pending) == 0 {
		t.Fatal("no edge blocks left pending — the test no longer crosses the boundary")
	}
	for id := 0; id < dense.Size(); id++ {
		want := dense.Succs(StateID(id))
		var got []Edge
		for e := range sp.EdgesFrom(StateID(id)) {
			got = append(got, e)
		}
		if len(got) != len(want) {
			t.Fatalf("EdgesFrom(%d): %d edges, want %d", id, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("EdgesFrom(%d)[%d] = %+v, want %+v", id, j, got[j], want[j])
			}
		}
	}
	// Early break must not disturb subsequent full iterations.
	for e := range sp.EdgesFrom(0) {
		_ = e
		break
	}
	n := 0
	for range sp.EdgesFrom(0) {
		n++
	}
	if n != len(dense.Succs(0)) {
		t.Errorf("EdgesFrom(0) after early break yielded %d edges, want %d", n, len(dense.Succs(0)))
	}
	stats, ok := GraphSpillStats(&Graph{store: vertices, adj: sp})
	if !ok {
		t.Fatal("GraphSpillStats not ok for a spill store")
	}
	if stats.States != dense.Size() || stats.SpillBytes != 0 || stats.Reads != 0 {
		t.Errorf("stats = %+v, want %d states and no fingerprint traffic", stats, dense.Size())
	}
	if stats.EdgeBytes != sp.flushedOff+int64(len(sp.pending)) {
		t.Errorf("stats.EdgeBytes = %d, want %d", stats.EdgeBytes, sp.flushedOff+int64(len(sp.pending)))
	}
	if stats.EdgeReads == 0 {
		t.Error("sealed adjacency served zero reads from the edge file")
	}
	// Out-of-order SetSuccs violates the append-only contract and must
	// panic like slice-bounds misuse, not corrupt the offset index.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-order SetSuccs did not panic")
			}
		}()
		sp.SetSuccs(StateID(dense.Size()+3), nil)
	}()
}

// TestSpillWriteFailureSurfacesAsError: an environmental write failure
// (simulated by closing the edge file so the level seal fails) must come out
// of the recoverSpillWrite boundary as an ordinary error — the disk-full path
// of BuildGraph — not as a process-killing panic.
func TestSpillWriteFailureSurfacesAsError(t *testing.T) {
	sys, err := protocols.BuildForward(2, 0, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	vertices := newDenseStore(sys, true)
	sp, err := newSpillEdges(vertices, t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	sp.efile.Close()
	st := stateAfterInputs(t, sys)
	var g *Graph
	var buildErr error
	func() {
		defer recoverSpillWrite(&g, &buildErr)
		vertices.Intern(vertices.AppendKey(nil, st), st, packedEdge{to: noState})
		sp.SetSuccs(0, nil) // a sink: one count byte to seal
		sp.SealLevel()
		g = &Graph{store: vertices, adj: sp} // must be dropped by the recovery
	}()
	if buildErr == nil {
		t.Fatal("spill write failure did not surface as an error")
	}
	if g != nil {
		t.Error("recoverSpillWrite kept the partial graph alongside the error")
	}
}

// TestSpillStoreBadDir: an unusable spill directory must surface as a build
// error from BuildGraph (both engines), not a panic.
func TestSpillStoreBadDir(t *testing.T) {
	sys, err := protocols.BuildForward(2, 0, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		_, err := BuildGraph(sys, []systemState{stateAfterInputs(t, sys)}, BuildOptions{
			Workers:  workers,
			Store:    StoreSpill,
			SpillDir: "/nonexistent/spill/dir",
		})
		if err == nil {
			t.Fatalf("workers=%d: BuildGraph with unusable spill dir succeeded", workers)
		}
		var le *LimitError
		if errors.As(err, &le) {
			t.Fatalf("workers=%d: spill-dir failure misreported as %v", workers, err)
		}
	}
}
