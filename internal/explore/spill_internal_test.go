package explore

// In-package tests for the disk-spilling backend and the uniform bounds
// contract of the StateStore surface: every read accessor of every backend
// must be total (zero value / ok == false beyond Len(), never a panic), the
// spill store must keep assigning dense-identical IDs once the pending
// window rotates to disk, and forced hash collisions must be resolved by
// reading fingerprints back from the spill file.

import (
	"errors"
	"testing"

	"github.com/ioa-lab/boosting/internal/protocols"
	"github.com/ioa-lab/boosting/internal/service"
	"github.com/ioa-lab/boosting/internal/system"
)

// allBackends builds one store of every kind for a system, with the spill
// store's pending window and the dense store's probe table shrunk so small
// graphs exercise the disk path and several table growths. Edge labels are
// sys's own, so the stores take edges of graphs built on sys only.
func allBackends(t *testing.T, sys *system.System) []struct {
	name  string
	store StateStore
} {
	t.Helper()
	spill, err := newSpillStore(sys, t.TempDir(), "", true)
	if err != nil {
		t.Fatal(err)
	}
	spill.batch = 4
	dense := newDenseStore(sys, true)
	dense.table = make([]uint32, 2)
	return []struct {
		name  string
		store StateStore
	}{
		{"dense", dense},
		{"spill", spill},
	}
}

// packedSuccs returns the edges out of a vertex of a dense graph as its store
// holds them — the write type of SetSuccs. Their labels are the graph's
// System's, so they may be handed only to a store built on that System.
func packedSuccs(g *Graph, id StateID) []packedEdge {
	return g.store.(*denseStore).run(id)
}

// fillPrefix interns the first n vertices of a dense reference graph into a
// store on the same System and records their adjacency in the contract's order
// (one SetSuccs per
// vertex, increasing IDs), with a seal partway through so the spill backend
// serves blocks from both the edge file and the pending buffer.
func fillPrefix(ref *Graph, store StateStore, n int) {
	var buf []byte
	for id := range StateID(n) {
		st, _ := ref.State(id)
		buf = store.AppendKey(buf[:0], st)
		store.Intern(string(buf), st, packedEdge{to: noState})
	}
	for id := range StateID(n) {
		store.SetSuccs(id, packedSuccs(ref, id))
		if int(id) == n/2 {
			store.SealLevel()
		}
	}
}

// TestStoreBoundsUniform probes every read accessor of every backend at
// Len() and beyond: out-of-range IDs must yield zero values, uniformly —
// including the adjacency face, whose EdgesFrom must be total (an empty
// sequence beyond Len(), never a panic).
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
		fillPrefix(dense, b.store, n)
		if got := b.store.Len(); got != n {
			t.Fatalf("%s: Len() = %d, want %d", b.name, got, n)
		}
		for _, id := range []StateID{StateID(n), StateID(n + 5), ^StateID(0)} {
			if _, ok := b.store.State(id); ok {
				t.Errorf("%s: State(%d) ok beyond Len()", b.name, id)
			}
			if fp := b.store.Fingerprint(id); fp != "" {
				t.Errorf("%s: Fingerprint(%d) = %q beyond Len(), want \"\"", b.name, id, fp)
			}
			for range b.store.EdgesFrom(id) {
				t.Errorf("%s: EdgesFrom(%d) yielded an edge beyond Len()", b.name, id)
			}
			if p := b.store.Pred(id); p.has || p.from != 0 {
				t.Errorf("%s: Pred(%d) non-zero beyond Len()", b.name, id)
			}
		}
		// Lookups are total too: bytes of the wrong length, a well-formed
		// key of no vertex, and strings that are no fingerprint of this
		// system all miss.
		noVertex := b.store.AppendKey(nil, sys.InitialState())
		for _, key := range [][]byte{nil, []byte("no such key"), noVertex[:len(noVertex)-1], noVertex} {
			if _, ok := b.store.Lookup(key); ok {
				t.Errorf("%s: Lookup(%q) succeeded", b.name, key)
			}
		}
		fp0 := dense.Fingerprint(0)
		for _, fp := range []string{"", "no such fingerprint", fp0[:len(fp0)-1], fp0 + fp0, sys.Fingerprint(sys.InitialState())} {
			if _, ok := b.store.LookupFingerprint(fp); ok {
				t.Errorf("%s: LookupFingerprint(%q) succeeded", b.name, fp)
			}
		}
		// In-range accessors still resolve after the probes, and the
		// recorded adjacency reads back exactly, sealed or pending.
		if fp0 := b.store.Fingerprint(0); fp0 != dense.Fingerprint(0) {
			t.Errorf("%s: Fingerprint(0) diverged after out-of-range probes", b.name)
		}
		for id := 0; id < n; id++ {
			want := dense.Succs(StateID(id))
			var got []Edge
			for e := range b.store.EdgesFrom(StateID(id)) {
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

// TestSpillStoreRotation drives the spill store through many window
// rotations (batch = 4) and asserts it keeps assigning exactly the dense
// backend's IDs, that rotated vertices round-trip — State decodes back from
// the spill file and re-encodes byte-identically — and that the stats
// account for the disk traffic.
func TestSpillStoreRotation(t *testing.T) {
	sys, err := protocols.BuildForward(2, 0, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := BuildGraph(sys, []systemState{stateAfterInputs(t, sys)}, BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := newSpillStore(sys, t.TempDir(), "", true)
	if err != nil {
		t.Fatal(err)
	}
	sp.batch = 4
	var buf []byte
	var wantBytes int64
	for id := 0; id < dense.Size(); id++ {
		st, _ := dense.State(StateID(id))
		buf = sys.AppendFingerprint(buf[:0], st)
		wantBytes += int64(len(buf))
		got, fresh := sp.Intern(string(buf), st, packedEdge{to: noState})
		if !fresh || got != StateID(id) {
			t.Fatalf("spill Intern state %d: got %d fresh=%v", id, got, fresh)
		}
		// Re-interning the same fingerprint must dedup, not reassign.
		if again, fresh := sp.Intern(string(buf), st, packedEdge{to: noState}); fresh || again != StateID(id) {
			t.Fatalf("spill re-Intern state %d: got %d fresh=%v", id, again, fresh)
		}
	}
	if sp.Len() != dense.Size() {
		t.Fatalf("spill Len() = %d, want %d", sp.Len(), dense.Size())
	}
	if resident := sp.Len() - sp.pendingBase; resident >= sp.Len() {
		t.Fatalf("pending window never rotated: %d of %d resident", resident, sp.Len())
	}
	for id := 0; id < dense.Size(); id++ {
		want := dense.Fingerprint(StateID(id))
		if got := sp.Fingerprint(StateID(id)); got != want {
			t.Fatalf("spill Fingerprint(%d) differs from dense", id)
		}
		st, ok := sp.State(StateID(id))
		if !ok {
			t.Fatalf("spill State(%d) not ok", id)
		}
		buf = sys.AppendFingerprint(buf[:0], st)
		if string(buf) != want {
			t.Fatalf("state %d did not round-trip through the spill file:\n%q\n%q", id, buf, want)
		}
		if got, ok := sp.Lookup(buf); !ok || got != StateID(id) {
			t.Fatalf("spill Lookup of state %d: got %d ok=%v", id, got, ok)
		}
	}
	stats, ok := GraphSpillStats(&Graph{store: sp})
	if !ok {
		t.Fatal("GraphSpillStats not ok for a spill store")
	}
	if stats.States != dense.Size() || stats.SpillBytes != wantBytes {
		t.Errorf("stats = %+v, want %d states / %d bytes", stats, dense.Size(), wantBytes)
	}
	if stats.Reads == 0 {
		t.Error("rotated spill store served zero reads from disk")
	}
	if stats.Resident != sp.Len()-sp.pendingBase {
		t.Errorf("stats.Resident = %d, want %d", stats.Resident, sp.Len()-sp.pendingBase)
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
	sp, err := newSpillStore(sys, t.TempDir(), "", true)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	var buf []byte
	for id := 0; id < dense.Size(); id++ {
		st, _ := dense.State(StateID(id))
		buf = sys.AppendFingerprint(buf[:0], st)
		sp.Intern(string(buf), st, packedEdge{to: noState})
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
	stats, ok := GraphSpillStats(&Graph{store: sp})
	if !ok {
		t.Fatal("GraphSpillStats not ok for a spill store")
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

// TestSpillStoreCollisionAudit forces every fingerprint into one bucket
// with equal wide hashes: every dedup probe must verify against fingerprints
// read back from the spill file, resolving (and counting) the collisions
// without ever merging distinct states.
func TestSpillStoreCollisionAudit(t *testing.T) {
	sys, err := protocols.BuildForward(2, 0, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := BuildGraph(sys, []systemState{stateAfterInputs(t, sys)}, BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := newSpillStore(sys, t.TempDir(), "", true)
	if err != nil {
		t.Fatal(err)
	}
	sp.batch = 4
	sp.hash = func([]byte) (uint64, uint64) { return 0, 0 }
	var buf []byte
	for id := 0; id < dense.Size(); id++ {
		st, _ := dense.State(StateID(id))
		buf = sys.AppendFingerprint(buf[:0], st)
		if got, fresh := sp.Intern(string(buf), st, packedEdge{to: noState}); !fresh || got != StateID(id) {
			t.Fatalf("total-collision spill Intern state %d: got %d fresh=%v", id, got, fresh)
		}
	}
	for id := 0; id < dense.Size(); id++ {
		st, _ := dense.State(StateID(id))
		buf = sys.AppendFingerprint(buf[:0], st)
		if got, ok := sp.Lookup(buf); !ok || got != StateID(id) {
			t.Fatalf("total-collision spill Lookup state %d: got %d ok=%v", id, got, ok)
		}
	}
	if sp.collisions.Load() == 0 {
		t.Error("total-collision spill store audited zero collisions")
	}
	if sp.Len() != dense.Size() {
		t.Errorf("spill Len() = %d, want %d", sp.Len(), dense.Size())
	}
}

// TestSpillWriteFailureSurfacesAsError: an environmental write failure
// (simulated by closing the spill file so the rotation flush fails) must
// come out of the recoverSpillWrite boundary as an ordinary error — the
// disk-full path of BuildGraph — not as a process-killing panic.
func TestSpillWriteFailureSurfacesAsError(t *testing.T) {
	sys, err := protocols.BuildForward(2, 0, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := newSpillStore(sys, t.TempDir(), "", true)
	if err != nil {
		t.Fatal(err)
	}
	sp.batch = 1 // rotate — and hit the failing flush — on the first intern
	sp.file.Close()
	st := stateAfterInputs(t, sys)
	var g *Graph
	var buildErr error
	func() {
		defer recoverSpillWrite(&g, &buildErr)
		var buf []byte
		buf = sys.AppendFingerprint(buf[:0], st)
		sp.Intern(string(buf), st, packedEdge{to: noState})
		g = &Graph{store: sp} // must be dropped by the recovery
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
