package explore

// In-package tests for the stores: the vertex store's probe table (forced
// into one chain via a degenerate hash function), the lookups' totality, its
// keying of successors, and the two adjacencies' reads against each other.
// The public behaviour — identical graphs, valences and reports — is covered
// by the external store/progress/cancellation tests and the root-level
// parity suite.

import (
	"fmt"
	"slices"
	"testing"

	"github.com/ioa-lab/boosting/internal/allocpin"
	"github.com/ioa-lab/boosting/internal/protocols"
	"github.com/ioa-lab/boosting/internal/service"
	"github.com/ioa-lab/boosting/internal/symmetry"
	"github.com/ioa-lab/boosting/internal/system"
)

// sameGraph asserts got is ref per ID: fingerprint, outgoing edges,
// witness path and valence of every vertex, and the roots.
func sameGraph(t *testing.T, label string, ref, got *Graph) {
	t.Helper()
	if got.Size() != ref.Size() || got.Edges() != ref.Edges() || !slices.Equal(got.Roots(), ref.Roots()) {
		t.Fatalf("%s: %d states / %d edges / roots %v, want %d / %d / %v",
			label, got.Size(), got.Edges(), got.Roots(), ref.Size(), ref.Edges(), ref.Roots())
	}
	for id := range StateID(ref.Size()) {
		if g, r := got.Fingerprint(id), ref.Fingerprint(id); g != r {
			t.Fatalf("%s: state %d fingerprint\n got  %q\n want %q", label, id, g, r)
		}
		if g, r := got.Succs(id), ref.Succs(id); !slices.Equal(g, r) {
			t.Fatalf("%s: state %d edges %v, want %v", label, id, g, r)
		}
		if g, r := got.WitnessPath(id), ref.WitnessPath(id); !slices.Equal(g, r) {
			t.Fatalf("%s: state %d witness path %+v, want %+v", label, id, g, r)
		}
		if g, r := got.Valence(id), ref.Valence(id); g != r {
			t.Fatalf("%s: state %d valence %v, want %v", label, id, g, r)
		}
	}
}

// TestDenseTableExact runs the level loop over a vertex store whose hash
// sends every key down one probe chain and whose table starts at two slots:
// linear probing then decides every lookup by the exact key compare alone,
// across a dozen rebuilds from the stored keys, and the graph must still be
// the default store's per ID.
func TestDenseTableExact(t *testing.T) {
	sys, err := protocols.BuildForward(3, 1, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	_, roots, err := monotoneRoots(sys)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := BuildGraph(sys, roots, BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	store := newDenseStore(sys)
	store.table = make([]uint32, 2)
	store.hash = func([]byte) uint64 { return 0 }
	g := buildOn(t, sys, roots, store, &packedAdjacency{sys: sys, segCap: edgeSegment}, BuildOptions{})
	sameGraph(t, "one probe chain", ref, g)
	if len(store.table) < 2*g.Size() || len(store.table) >= 8*g.Size() {
		t.Errorf("table has %d slots for %d vertices", len(store.table), g.Size())
	}
	if keys := slices.Concat(store.keys...); len(keys) != g.Size()*store.stride {
		t.Errorf("%d key bytes for %d vertices of stride %d", len(keys), g.Size(), store.stride)
	}
}

// TestLookupOfFingerprint: Graph.Lookup inverts Graph.Fingerprint on every
// vertex of both backends, reduced and unreduced, and strings that are no
// fingerprint of a vertex — malformed, truncated, doubled, of another
// system's shape, of a state outside the graph — are misses.
func TestLookupOfFingerprint(t *testing.T) {
	sys, err := protocols.BuildForward(3, 1, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := symmetry.New(sys, protocols.ForwardSymmetry(3))
	if err != nil {
		t.Fatal(err)
	}
	_, roots, err := monotoneRoots(sys)
	if err != nil {
		t.Fatal(err)
	}
	smaller, err := protocols.BuildForward(2, 0, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	for _, store := range []StoreKind{StoreDense, StoreSpill} {
		for _, c := range []Canonicalizer{nil, canon} {
			g, err := BuildGraph(sys, roots, BuildOptions{Workers: 2, Store: store, SpillDir: t.TempDir(), Symmetry: c})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%v, symmetry %v", store, c != nil)
			for id := range StateID(g.Size()) {
				if got, ok := g.Lookup(g.Fingerprint(id)); !ok || got != id {
					t.Fatalf("%s: Lookup(Fingerprint(%d)) = %d, %v", label, id, got, ok)
				}
			}
			fp := g.Fingerprint(StateID(g.Size() - 1))
			for _, miss := range []string{"", "junk", fp[:len(fp)-1], fp + fp, fp + "x",
				sys.Fingerprint(sys.InitialState()), smaller.Fingerprint(stateAfterInputs(t, smaller))} {
				if id, ok := g.Lookup(miss); ok {
					t.Errorf("%s: Lookup(%q) = %d, want a miss", label, miss, id)
				}
			}
			if err := CloseGraphStore(g); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestDenseKeyLookupAllocs pins the per-successor path of the vertex store:
// keying a state and probing for it allocates nothing.
func TestDenseKeyLookupAllocs(t *testing.T) {
	sys, err := protocols.BuildForward(2, 0, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(sys, []systemState{stateAfterInputs(t, sys)}, BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	states := make([]systemState, g.Size())
	for id := range states {
		states[id], _ = g.State(StateID(id))
	}
	buf := make([]byte, 0, 64)
	allocpin.Check(t, "dense AppendKey+Lookup", 100, 0, func() {
		for id, st := range states {
			buf = g.store.AppendKey(buf[:0], st)
			if got, ok := g.store.Lookup(buf); !ok || got != StateID(id) {
				t.Fatalf("Lookup of state %d: %d, %v", id, got, ok)
			}
		}
	})
}

// TestSuccKeyIsTheKey holds the vertex store to its successor keying: for
// every vertex of a graph and every applicable task, the key AppendSuccKey
// derives from the parent's key and the step's delta is byte for byte the key
// AppendKey gives the materialised successor, and resolves to the edge's
// target.
func TestSuccKeyIsTheKey(t *testing.T) {
	sys, err := protocols.BuildForward(3, 1, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(sys, []systemState{stateAfterInputs(t, sys)}, BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for id := range StateID(g.Size()) {
		st, _ := g.State(id)
		pkey := g.store.AppendKey(nil, st)
		edges := slices.Collect(g.EdgesFrom(id))
		for i := range sys.Tasks() {
			d, _, ok, err := sys.Step(st, i)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
			got, want := g.store.AppendSuccKey(nil, pkey, d), g.store.AppendKey(nil, st.With(d))
			if string(got) != string(want) {
				t.Fatalf("state %d task %d: key from the delta %x, of the successor %x", id, i, got, want)
			}
			if to, found := g.store.Lookup(got); !found || to != edges[0].To {
				t.Fatalf("state %d task %d: key resolves to %d (%v), the edge leads to %d", id, i, to, found, edges[0].To)
			}
			edges = edges[1:]
		}
		if len(edges) != 0 {
			t.Fatalf("state %d: %d edges no task stepped to", id, len(edges))
		}
	}
}

// TestStoredSuccessorAllocs pins the per-successor step both level bodies
// share without symmetry: a successor the store already holds — 86 % of
// them on forward n=5 — is stepped, keyed from its parent's key and the
// step's delta, and looked up without one allocation; no State is built.
func TestStoredSuccessorAllocs(t *testing.T) {
	sys, err := protocols.BuildForward(3, 1, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(sys, []systemState{stateAfterInputs(t, sys)}, BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	states := make([]systemState, g.Size())
	for id := range states {
		states[id], _ = g.State(StateID(id))
	}
	pkey, buf := make([]byte, 0, 64), make([]byte, 0, 64)
	allocpin.Check(t, fmt.Sprintf("stepping the %d stored successors", g.Edges()), 20, 0, func() {
		edges := 0
		for id, st := range states {
			pkey = g.store.AppendKey(pkey[:0], st)
			i := 0
			for t2 := range sys.Tasks() {
				e, _, _, ok, err := g.successor(nil, st, pkey, t2, &buf)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					continue
				}
				if want := packedSuccs(g, StateID(id))[i]; e != want {
					t.Fatalf("state %d task %d: successor %+v, the graph has %+v", id, t2, e, want)
				}
				i++
			}
			edges += i
		}
		if edges != g.Edges() {
			t.Fatalf("stepped %d successors, the graph has %d edges", edges, g.Edges())
		}
	})
}

type systemState = system.State

func stateAfterInputs(t *testing.T, sys *system.System) system.State {
	t.Helper()
	st, err := ApplyInputs(sys, MonotoneAssignment(sys, 1))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPackedAdjacencyRoundTrip is the property test of the in-RAM
// adjacency (the dense store's): random edge lists — labels of a real graph
// of the system in no particular order, repeated, sinks, huge targets —
// handed to SetSuccs come back from EdgesFrom, Graph.Succs and Graph.Succ
// resolved, identical and in order, although the caller scribbles over and
// reuses its slice after every call; IDs never recorded yield empty
// sequences; an out-of-order SetSuccs panics like the spill backend's.
func TestPackedAdjacencyRoundTrip(t *testing.T) {
	// A fixed xorshift sequence: the determinism analyzer keeps math/rand
	// out of this package, and the property needs no better randomness.
	x := uint64(16)
	intn := func(n int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(n))
	}
	sys, err := protocols.BuildForward(2, 0, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	// The labels the system has numbered: every one a build of its graph met.
	ref, err := BuildGraph(sys, []systemState{stateAfterInputs(t, sys)}, BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var labels []system.Label
	for _, e := range slices.Concat(ref.adj.(*packedAdjacency).edges...) {
		if !slices.Contains(labels, e.Label) {
			labels = append(labels, e.Label)
		}
	}
	if len(labels) < 10 {
		t.Fatalf("only %d distinct labels to draw from", len(labels))
	}
	const n = 300
	adj := &packedAdjacency{sys: sys, segCap: edgeSegment}
	g := &Graph{adj: adj}
	want := make([][]Edge, n)
	var scratch []packedEdge
	for id := range want {
		scratch = scratch[:0]
		for range intn(10) {
			e := packedEdge{to: StateID(intn(1 << 32)), Label: labels[intn(len(labels))]}
			task, act := sys.Resolve(e.Label)
			scratch = append(scratch, e)
			want[id] = append(want[id], Edge{Task: task, Action: act, To: e.to})
		}
		adj.SetSuccs(StateID(id), scratch)
		for i := range scratch {
			scratch[i] = packedEdge{to: 7}
		}
	}
	for id, edges := range want {
		if got := slices.Collect(adj.EdgesFrom(StateID(id))); !slices.Equal(got, edges) {
			t.Fatalf("EdgesFrom(%d) = %v, want %v", id, got, edges)
		}
		if got := g.Succs(StateID(id)); !slices.Equal(got, edges) || (len(edges) == 0 && got != nil) {
			t.Fatalf("Succs(%d) = %v, want %v", id, got, edges)
		}
		for _, e := range edges {
			first := edges[slices.IndexFunc(edges, func(x Edge) bool { return x.Task == e.Task })]
			if got, ok := g.Succ(StateID(id), e.Task); !ok || got != first {
				t.Fatalf("Succ(%d, %v) = %v %v, want %v", id, e.Task, got, ok, first)
			}
		}
	}
	for _, id := range []StateID{n, n + 9, ^StateID(0)} {
		if got := g.Succs(id); got != nil {
			t.Errorf("Succs(%d) = %v for a vertex never recorded", id, got)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-order SetSuccs did not panic")
			}
		}()
		adj.SetSuccs(n+3, nil)
	}()
}

// TestTargetsMatchesEdgesFrom holds the label-free accessor to the store
// contract on every backend that implements it: Targets is the To projection
// of EdgesFrom for every vertex, appends after whatever the buffer already
// holds, and hands the buffer back untouched for IDs past the end.
func TestTargetsMatchesEdgesFrom(t *testing.T) {
	sys, err := protocols.BuildForward(2, 0, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	roots := []systemState{stateAfterInputs(t, sys)}
	dense, err := BuildGraph(sys, roots, BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Both backends filled by hand with a prefix of the graph and a seal
	// halfway, so the spill store answers from the edge file and from its
	// pending buffer.
	backends := allBackends(t, sys)
	for _, b := range backends {
		fillPrefix(t, dense, b.g, 10)
	}
	spill := backends[len(backends)-1].g.adj.(*spillEdges)
	if off := spill.eoffs[0]; off >= spill.flushedOff {
		t.Fatal("spill: vertex 0 was meant to be sealed")
	}
	if off := spill.eoffs[9]; off < spill.flushedOff {
		t.Fatal("spill: vertex 9 was meant to be pending")
	}

	// A durable graph reopened from its directory: every block sealed, the
	// dictionaries read back from the index file.
	dir := t.TempDir()
	durable, err := BuildGraph(sys, roots, BuildOptions{Workers: 1, Store: StoreSpill, GraphDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := CloseGraphStore(durable); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenGraph(sys, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseGraphStore(reopened)
	backends = append(backends, struct {
		name string
		g    *Graph
	}{"reopened", reopened})

	for _, b := range backends {
		prefix := []StateID{7, 9}
		for id := range StateID(b.g.Size()) {
			var want []StateID
			for e := range b.g.EdgesFrom(id) {
				want = append(want, e.To)
			}
			if got := b.g.adj.Targets(id, nil); !slices.Equal(got, want) {
				t.Fatalf("%s: Targets(%d) = %v, EdgesFrom leads to %v", b.name, id, got, want)
			}
			if got := b.g.adj.Targets(id, slices.Clone(prefix)); !slices.Equal(got, append(slices.Clone(prefix), want...)) {
				t.Fatalf("%s: Targets(%d) after %v = %v, want %v appended", b.name, id, prefix, got, want)
			}
		}
		for _, id := range []StateID{StateID(b.g.Size()), noState} {
			if got := b.g.adj.Targets(id, prefix); !slices.Equal(got, []StateID{7, 9}) {
				t.Errorf("%s: Targets(%d) past the end = %v, want the buffer back unchanged", b.name, id, got)
			}
		}
	}
}
