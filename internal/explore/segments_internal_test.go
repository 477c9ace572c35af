package explore

// In-package tests for the dense store's segments: graph identity per ID with
// a segment boundary at every vertex and inside, at and just past every edge
// run; the address rule of the packed adjacency row by row; Intern, Lookup
// and grow against a map on random keys; and the two properties the segments
// exist for — nothing stored ever moves, and a build allocates its graph once.

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"github.com/ioa-lab/boosting/internal/allocpin"
	"github.com/ioa-lab/boosting/internal/protocols"
	"github.com/ioa-lab/boosting/internal/service"
	"github.com/ioa-lab/boosting/internal/symmetry"
	"github.com/ioa-lab/boosting/internal/system"
)

// buildOn runs what BuildGraph runs — roots, the level loop, the valence
// fixpoint — over a vertex store and an in-RAM adjacency the test made, so
// their segment capacities, table size and hash are the test's.
func buildOn(t *testing.T, sys *system.System, roots []system.State, store *denseStore, adj *packedAdjacency, opt BuildOptions) *Graph {
	t.Helper()
	g := &Graph{sys: sys, store: store, adj: adj}
	g.internRoots(roots, opt.Symmetry)
	if err := g.explore(defaultMaxStates, opt); err != nil {
		t.Fatal(err)
	}
	g.computeMasks()
	return g
}

// TestSegmentBoundaryParity builds forward n=3 and n=4, tob n=2 and the
// forward n=4 quotient on dense stores whose segments are so small that a
// boundary falls after every vertex (1), every second, third and seventh, and
// whose edge segments hold exactly the longest run of the graph, one edge
// more, a prime number of edges, and fewer than most runs need (2: nearly
// every run is longer than a segment and gets its own). Every graph must be,
// per ID, the one the default capacities give and the one the spill store
// gives: fingerprint, labelled edges, targets, witness path, valence.
func TestSegmentBoundaryParity(t *testing.T) {
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
	rows := []struct {
		name string
		sys  *system.System
		opt  BuildOptions
	}{
		{"forward-n3", forward3, BuildOptions{}},
		{"forward-n4", forward4, BuildOptions{}},
		{"tob-n2", tob2, BuildOptions{}},
		{"forward-n4-quotient", forward4, BuildOptions{Symmetry: canon}},
	}
	const prime = 29
	type reference struct {
		roots      []system.State
		ref, spill *Graph
		longest    int // the longest run of the graph
	}
	refs := make([]reference, len(rows))
	for i, r := range rows {
		_, roots, err := monotoneRoots(r.sys)
		if err != nil {
			t.Fatal(err)
		}
		opt := r.opt
		opt.Workers = 1
		ref, err := BuildGraph(r.sys, roots, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Store, opt.SpillDir = StoreSpill, t.TempDir()
		spill, err := BuildGraph(r.sys, roots, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer CloseGraphStore(spill)
		sameGraph(t, r.name+": spill against dense", ref, spill)
		refs[i] = reference{roots: roots, ref: ref, spill: spill}
		for id := range StateID(ref.Size()) {
			refs[i].longest = max(refs[i].longest, len(packedSuccs(ref, id)))
		}
		if refs[i].longest+1 >= prime {
			t.Fatalf("%s: a vertex has %d edges, the prime segment is meant to hold more than one run", r.name, refs[i].longest)
		}
	}
	for i, r := range rows {
		ref, spill, longest := refs[i].ref, refs[i].spill, refs[i].longest
		for _, vseg := range []StateID{1, 2, 3, 7} {
			for _, segCap := range []int{longest, longest + 1, prime, 2} {
				store := newDenseStore(r.sys)
				store.vseg = vseg
				adj := &packedAdjacency{sys: r.sys, segCap: segCap}
				g := buildOn(t, r.sys, refs[i].roots, store, adj, r.opt)
				label := fmt.Sprintf("%s: %d vertices and %d edges a segment", r.name, vseg, segCap)
				sameGraph(t, label, ref, g)
				sameGraph(t, label+", against spill", spill, g)
				var buf []StateID
				for id := range StateID(g.Size()) {
					buf = spill.adj.Targets(id, buf[:0])
					if got := g.adj.Targets(id, nil); !slices.Equal(got, buf) {
						t.Fatalf("%s: Targets(%d) = %v, spill has %v", label, id, got, buf)
					}
				}
				if want := (g.Size() + int(vseg) - 1) / int(vseg); len(store.keys) != want || len(store.states) != want {
					t.Errorf("%s: %d key and %d state segments for %d vertices", label, len(store.keys), len(store.states), g.Size())
				}
			}
		}
	}
}

// TestEdgeRunAddressing holds the packed adjacency to its address rule, row
// by row: where a run of each length lands after the runs before it — the
// virtual offset past its last edge — and that run reads back exactly the
// edges written, whether the run filled a tail to the last slot, skipped a
// tail it did not fit, was longer than a segment, or was empty at either
// side of a segment boundary.
func TestEdgeRunAddressing(t *testing.T) {
	base := func(seg int) uint32 { return uint32(seg) << edgeShift }
	for _, tc := range []struct {
		name   string
		segCap int
		degs   []int
		ends   []uint32
		segs   []int // segment lengths, 0 for a number a long run passed over
	}{
		{"a run exactly fills a tail, an empty run is the last of the segment", 4,
			[]int{3, 1, 0, 2}, []uint32{3, 4, 4, base(1) + 2}, []int{4, 2}},
		{"a run skips a tail it does not fit", 4,
			[]int{3, 2, 0, 2, 1}, []uint32{3, base(1) + 2, base(1) + 2, base(1) + 4, base(2) + 1}, []int{3, 4, 1}},
		{"an empty run is the first of a segment", edgeSegment,
			[]int{edgeSegment - 5, 5, 0, 0, 7}, []uint32{edgeSegment - 5, base(1), base(1), base(1), base(1) + 7}, []int{edgeSegment, 7}},
		{"empty runs before anything is stored", 4,
			[]int{0, 0, 1}, []uint32{0, 0, 1}, []int{1}},
		{"a run longer than its segment gets one of its own, and nothing shares it", 4,
			[]int{1, 9, 1, 4, 5}, []uint32{1, base(1) + 9, base(2) + 1, base(3) + 4, base(4) + 5}, []int{1, 9, 1, 4, 5}},
		{"a run longer than any segment number addresses", edgeSegment,
			[]int{2, edgeSegment + 3, 0, 1, 2*edgeSegment + 0, 1},
			[]uint32{2, base(2) + 3, base(2) + 3, base(3) + 1, base(6), base(6) + 1},
			[]int{2, edgeSegment + 3, 0, 1, 2 * edgeSegment, 0, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := packedAdjacency{segCap: tc.segCap}
			next := StateID(0)
			var scratch []packedEdge
			for id, d := range tc.degs {
				scratch = scratch[:0]
				for range d {
					scratch = append(scratch, packedEdge{to: next, Label: system.Label{Task: uint16(id)}})
					next++
				}
				a.SetSuccs(StateID(id), scratch)
				clear(scratch) // SetSuccs copies
			}
			if !slices.Equal(a.ends, tc.ends) {
				t.Fatalf("ends %v, want %v", a.ends, tc.ends)
			}
			var segs []int
			for _, s := range a.edges {
				segs = append(segs, len(s))
			}
			if !slices.Equal(segs, tc.segs) {
				t.Errorf("segment lengths %v, want %v", segs, tc.segs)
			}
			next = 0
			for id, d := range tc.degs {
				run := a.run(StateID(id))
				if len(run) != d {
					t.Fatalf("run(%d) has %d edges, want %d", id, len(run), d)
				}
				for _, e := range run {
					if e.to != next || int(e.Task) != id {
						t.Fatalf("run(%d) holds edge %+v, want target %d", id, e, next)
					}
					next++
				}
				if got := a.Targets(StateID(id), nil); len(got) != d {
					t.Fatalf("Targets(%d) has %d targets, want %d", id, len(got), d)
				}
			}
			if got := a.Targets(StateID(len(tc.degs)), nil); got != nil {
				t.Errorf("targets of a vertex not yet recorded: %v", got)
			}
		})
	}

	panics := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			if got := fmt.Sprint(recover()); got != want {
				t.Errorf("%s: panic %q, want %q", name, got, want)
			}
		}()
		f()
	}
	a := packedAdjacency{segCap: 4}
	a.SetSuccs(0, make([]packedEdge, 3))
	panics("a gap", "explore: SetSuccs(2) out of order (next unrecorded vertex is 1)", func() { a.SetSuccs(2, nil) })
	panics("a repeat", "explore: SetSuccs(0) out of order (next unrecorded vertex is 1)", func() { a.SetSuccs(0, nil) })
	// The guard is on the virtual offset: a run that would have to start past
	// the last segment base is refused before anything is allocated for it.
	const lastBase = math.MaxUint32 &^ edgeMask
	full := packedAdjacency{segCap: edgeSegment, ends: []uint32{lastBase + 10}}
	panics("past the last offset", "explore: in-memory adjacency: more than 2^32 edges", func() { full.SetSuccs(1, make([]packedEdge, 3)) })
	if len(full.ends) != 1 || len(full.edges) != 0 {
		t.Errorf("the refused run left %d ends and %d segments", len(full.ends), len(full.edges))
	}
	full.SetSuccs(1, nil) // an empty run needs no offset
	if got := full.run(1); got != nil || full.ends[1] != lastBase+10 {
		t.Errorf("empty run at the last offset: %v, ends %v", got, full.ends)
	}
}

// TestDenseInternAgainstMap is the property test of the vertex side: random
// keys — a third of them repeats — interned into a dense store of three
// vertices a segment whose hash sends every key down one probe chain and
// whose table starts at two slots must get the IDs a map hands out, before
// and after every growth, and every key must read back from its segment.
func TestDenseInternAgainstMap(t *testing.T) {
	x := uint64(23)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	sys, err := protocols.BuildForward(2, 0, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	store := newDenseStore(sys)
	store.vseg, store.table = 3, make([]uint32, 2)
	store.hash = func([]byte) uint64 { return 0 }
	oracle := map[string]StateID{}
	var keys []string
	key := make([]byte, store.stride)
	for range 700 {
		if len(keys) > 0 && rnd()%3 == 0 {
			copy(key, keys[rnd()%uint64(len(keys))])
		} else {
			for i := range key {
				key[i] = byte(rnd() >> 8 % 3) // few values a byte: near misses, long common prefixes
			}
		}
		want, seen := oracle[string(key)]
		if got, ok := store.Lookup(key); ok != seen || (seen && got != want) {
			t.Fatalf("Lookup(%x) = %d, %v; the map says %d, %v", key, got, ok, want, seen)
		}
		if !seen {
			want = StateID(len(oracle))
			oracle[string(key)] = want
			keys = append(keys, string(key))
		}
		if got, fresh := store.Intern(key, system.State{}); got != want || fresh == seen {
			t.Fatalf("Intern(%x) = %d, fresh %v; the map says %d, seen %v", key, got, fresh, want, seen)
		}
		if store.Len() != len(oracle) {
			t.Fatalf("Len() = %d after %d distinct keys", store.Len(), len(oracle))
		}
	}
	if len(oracle) < 300 {
		t.Fatalf("only %d distinct keys", len(oracle))
	}
	for id, k := range keys {
		if got := string(store.key(StateID(id))); got != k {
			t.Fatalf("key(%d) = %x, want %x", id, got, k)
		}
		if got, ok := store.Lookup([]byte(k)); !ok || got != StateID(id) {
			t.Fatalf("Lookup of key %d after the last growth: %d, %v", id, got, ok)
		}
	}
	if want := (len(keys) + 2) / 3; len(store.keys) != want || len(store.table) < 2*len(keys) {
		t.Errorf("%d key segments (want %d) and %d table slots for %d keys", len(store.keys), want, len(store.table), len(keys))
	}
}

// TestDenseStoreNeverMoves: what the dense store holds stays where it was
// put. The first key and the first edge of a forward n=4 build are at the
// same addresses after the last level as after the first — with flat slices
// grown by append they had been copied a dozen times by then.
func TestDenseStoreNeverMoves(t *testing.T) {
	sys, err := protocols.BuildForward(4, 0, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	_, roots, err := monotoneRoots(sys)
	if err != nil {
		t.Fatal(err)
	}
	store := newDenseStore(sys)
	adj := &packedAdjacency{sys: sys, segCap: edgeSegment}
	var key0 *byte
	var edge0 *packedEdge
	var state0 *system.State
	levels := 0
	g := buildOn(t, sys, roots, store, adj, BuildOptions{Progress: func(p Progress) {
		if levels++; p.Level == 0 {
			key0, edge0, state0 = &store.key(0)[0], &adj.run(0)[0], &store.states[0][0]
		}
	}})
	if levels < 10 || g.Size() < 2*vertexSegment || g.Edges() <= edgeSegment {
		t.Fatalf("%d levels, %d states, %d edges: too small to have grown", levels, g.Size(), g.Edges())
	}
	if key0 != &store.key(0)[0] || edge0 != &adj.run(0)[0] || state0 != &store.states[0][0] {
		t.Error("vertex 0 moved while the graph grew")
	}
	if got, want := unsafe.SliceData(store.keys[1]), &store.key(vertexSegment)[0]; got != want {
		t.Errorf("vertex %d's key is not the first of segment 1", vertexSegment)
	}
}

// TestBuildAllocatesItsGraphOnce: a warm one-worker forward n=5 ClassifyInits
// allocates at most 1.5 × the bytes the finished graph retains — 3.71 MB for
// 3.02 MB, 1.23 ×, today; 4.25 MB, 1.41 ×, while Intern was handed a string
// copy of each new vertex's key; 11.36 MB for 3.06 MB, 3.72 ×, while keys,
// states and edges grew by append-doubling. What is left above 1.0 is the
// arrays left flat: the probe table, ends, the predecessor list. The System
// is warm, so none of its cell tables count as graph on either side of the
// ratio. Bytes, not objects: TestClassifyInitsAllocCeilings pins those.
func TestBuildAllocatesItsGraphOnce(t *testing.T) {
	sys, err := protocols.BuildForward(5, 0, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	classify := func() *InitClassification {
		c, err := ClassifyInits(sys, BuildOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	classify() // fill the system's cell tables and transition memo
	allocpin.Exclusive(func() {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		kept := classify()
		runtime.GC()
		runtime.ReadMemStats(&after)
		retained := float64(after.HeapAlloc) - float64(before.HeapAlloc)
		runtime.KeepAlive(kept)
		best := math.Inf(1)
		for range 3 { // strays only inflate a sample
			runtime.ReadMemStats(&before)
			classify()
			runtime.ReadMemStats(&after)
			best = min(best, float64(after.TotalAlloc-before.TotalAlloc))
		}
		t.Logf("%d states: %.2f MB allocated, %.2f MB retained (%.2f ×)", kept.Graph.Size(), best/1e6, retained/1e6, best/retained)
		if best > 1.5*retained {
			t.Errorf("a build allocated %.0f bytes for a graph of %.0f: %.2f ×, want ≤ 1.5 ×", best, retained, best/retained)
		}
	})
}
