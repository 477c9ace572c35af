package explore

// In-package tests for the StateStore seam: the hash-compaction backend's
// collision audit (forced via a degenerate hash function) and the
// equivalence of all backends at the store level. The public behaviour —
// identical graphs, valences and reports — is covered by the external
// store/progress/cancellation tests and the root-level parity suite.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/ioa-lab/boosting/internal/allocpin"
	"github.com/ioa-lab/boosting/internal/intern"
	"github.com/ioa-lab/boosting/internal/ioa"
	"github.com/ioa-lab/boosting/internal/protocols"
	"github.com/ioa-lab/boosting/internal/service"
	"github.com/ioa-lab/boosting/internal/system"
)

// TestHashStoreCollisionAudit drives a hash store whose hash function maps
// every fingerprint to the same bucket: every distinct state is a hash
// collision, and the store must still assign the exact same dense IDs as
// the dense backend, resolving each collision by verification and counting
// it.
func TestHashStoreCollisionAudit(t *testing.T) {
	sys, err := protocols.BuildForward(2, 0, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := BuildGraph(sys, []systemState{stateAfterInputs(t, sys)}, BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := newHashStore(sys.AppendFingerprint, false, true)
	hs.hash = func([]byte) (uint64, uint64) { return 0, 0 }
	var buf []byte
	for id := 0; id < dense.Size(); id++ {
		st, _ := dense.State(StateID(id))
		buf = sys.AppendFingerprint(buf[:0], st)
		got, fresh := hs.Intern(string(buf), st, pred{})
		if !fresh || got != StateID(id) {
			t.Fatalf("degenerate hash store assigned id %d (fresh=%v), want fresh id %d", got, fresh, id)
		}
	}
	// Every re-lookup must resolve through the single shared bucket.
	for id := 0; id < dense.Size(); id++ {
		st, _ := dense.State(StateID(id))
		buf = sys.AppendFingerprint(buf[:0], st)
		got, ok := hs.Lookup(buf)
		if !ok || got != StateID(id) {
			t.Fatalf("lookup of state %d under total collision: got %d, ok=%v", id, got, ok)
		}
	}
	if hs.Collisions() == 0 {
		t.Error("total-collision store audited zero collisions")
	}
	if n := hs.Len(); n != dense.Size() {
		t.Errorf("store length %d, want %d", n, dense.Size())
	}
}

// TestRealHashNoFalseMerges interns every state of a real graph into a
// normally-hashed store and checks IDs survive a round trip.
func TestRealHashNoFalseMerges(t *testing.T) {
	sys, err := protocols.BuildForward(2, 0, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	for _, wide := range []bool{false, true} {
		dense, err := BuildGraph(sys, []systemState{stateAfterInputs(t, sys)}, BuildOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		hs := newHashStore(sys.AppendFingerprint, wide, true)
		var buf []byte
		for id := 0; id < dense.Size(); id++ {
			st, _ := dense.State(StateID(id))
			buf = sys.AppendFingerprint(buf[:0], st)
			if got, fresh := hs.Intern(string(buf), st, pred{}); !fresh || got != StateID(id) {
				t.Fatalf("wide=%v: intern state %d: got %d fresh=%v", wide, id, got, fresh)
			}
		}
		if fp0, fp1 := dense.Fingerprint(0), hs.Fingerprint(0); fp0 != fp1 {
			t.Errorf("wide=%v: reconstructed fingerprint mismatch:\n%q\n%q", wide, fp0, fp1)
		}
	}
}

// TestHashFingerprintAllocs pins the pooled-buffer discipline of the
// hash-compaction Fingerprint reconstruction: with a warm pool the only
// allocation per call is the returned string itself (it used to burn a
// second allocation on a fresh encode buffer every call).
func TestHashFingerprintAllocs(t *testing.T) {
	sys, err := protocols.BuildForward(2, 0, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := BuildGraph(sys, []systemState{stateAfterInputs(t, sys)}, BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, wide := range []bool{false, true} {
		hs := newHashStore(sys.AppendFingerprint, wide, true)
		var buf []byte
		for id := 0; id < dense.Size(); id++ {
			st, _ := dense.State(StateID(id))
			buf = sys.AppendFingerprint(buf[:0], st)
			hs.Intern(string(buf), st, pred{})
		}
		hs.Fingerprint(0) // warm the buffer pool
		label := "wide=false Fingerprint"
		if wide {
			label = "wide=true Fingerprint"
		}
		allocpin.Check(t, label, 100, 1, func() { hs.Fingerprint(0) })
	}
}

// TestStoreWithoutWitnesses: stores built without witnesses must record no
// predecessor links — Pred is the zero link for every vertex, in range or
// not — while IDs, states and fingerprints stay identical.
func TestStoreWithoutWitnesses(t *testing.T) {
	sys, err := protocols.BuildForward(2, 0, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := BuildGraph(sys, []systemState{stateAfterInputs(t, sys)}, BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	spill, err := newSpillStore(sys, t.TempDir(), "", false)
	if err != nil {
		t.Fatal(err)
	}
	backends := []struct {
		name  string
		store StateStore
	}{
		{"dense", newDenseStore(false)},
		{"hash64", newHashStore(sys.AppendFingerprint, false, false)},
		{"spill", spill},
	}
	var buf []byte
	for _, b := range backends {
		for id := 0; id < 10; id++ {
			st, _ := dense.State(StateID(id))
			buf = sys.AppendFingerprint(buf[:0], st)
			got, fresh := b.store.Intern(string(buf), st, pred{from: 1, has: true})
			if !fresh || got != StateID(id) {
				t.Fatalf("%s: witness-free Intern state %d: got %d fresh=%v", b.name, id, got, fresh)
			}
		}
		for id := 0; id < 12; id++ {
			if p := b.store.Pred(StateID(id)); p.has || p.from != 0 {
				t.Errorf("%s: Pred(%d) = %+v on a witness-free store, want zero", b.name, id, p)
			}
		}
		if fp := b.store.Fingerprint(3); fp != dense.Fingerprint(3) {
			t.Errorf("%s: witness-free store diverged on Fingerprint(3)", b.name)
		}
	}
}

type systemState = system.State

func stateAfterInputs(t *testing.T, sys *system.System) system.State {
	t.Helper()
	st, err := applyInputs(sys, MonotoneAssignment(sys, 1))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPackedAdjacencyRoundTrip is the property test of the in-RAM
// adjacency (dense and hash stores): random edge lists — tasks in no
// particular order, repeated labels, sinks, huge targets — handed to
// SetSuccs come back from EdgesFrom, Graph.Succs and Graph.Succ identical
// and in order, although the caller scribbles over and reuses its slice
// after every call; IDs never recorded yield empty sequences; an
// out-of-order SetSuccs panics like the spill backend's.
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
	label := func() (ioa.Task, ioa.Action) {
		task := ioa.Task{Kind: ioa.TaskKind(intn(3)), Proc: intn(4), Service: fmt.Sprint("k", intn(2))}
		return task, ioa.Action{Type: ioa.ActionType(intn(3)), Proc: task.Proc, Payload: fmt.Sprint("v", intn(6))}
	}
	for _, b := range allBackends(t) {
		if b.name == "spill" {
			continue // its own adjacency; covered by the spill suites
		}
		const n = 300
		g := &Graph{store: b.store}
		want := make([][]Edge, n)
		var scratch []Edge
		for id := range want {
			scratch = scratch[:0]
			for range intn(10) {
				task, act := label()
				scratch = append(scratch, Edge{Task: task, Action: act, To: StateID(intn(1 << 32))})
			}
			want[id] = slices.Clone(scratch)
			b.store.SetSuccs(StateID(id), scratch)
			for i := range scratch {
				scratch[i] = Edge{To: 7}
			}
		}
		for id, edges := range want {
			if got := slices.Collect(b.store.EdgesFrom(StateID(id))); !slices.Equal(got, edges) {
				t.Fatalf("%s: EdgesFrom(%d) = %v, want %v", b.name, id, got, edges)
			}
			if got := g.Succs(StateID(id)); !slices.Equal(got, edges) || (len(edges) == 0 && got != nil) {
				t.Fatalf("%s: Succs(%d) = %v, want %v", b.name, id, got, edges)
			}
			for _, e := range edges {
				first := edges[slices.IndexFunc(edges, func(x Edge) bool { return x.Task == e.Task })]
				if got, ok := g.Succ(StateID(id), e.Task); !ok || got != first {
					t.Fatalf("%s: Succ(%d, %v) = %v %v, want %v", b.name, id, e.Task, got, ok, first)
				}
			}
		}
		for _, id := range []StateID{n, n + 9, ^StateID(0)} {
			if got := g.Succs(id); got != nil {
				t.Errorf("%s: Succs(%d) = %v for a vertex never recorded", b.name, id, got)
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: out-of-order SetSuccs did not panic", b.name)
				}
			}()
			b.store.SetSuccs(n+3, nil)
		}()
	}
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
	// The four backends filled by hand with a prefix of the graph and a seal
	// halfway, so the spill store answers from the edge file and from its
	// pending buffer.
	backends := allBackends(t)
	for _, b := range backends {
		fillPrefix(sys, dense, b.store, 10)
	}
	spill := backends[len(backends)-1].store.(*spillStore)
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
	reopened, err := OpenGraph(sys, dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer CloseGraphStore(reopened)
	backends = append(backends, struct {
		name  string
		store StateStore
	}{"reopened", reopened.store})

	for _, b := range backends {
		prefix := []StateID{7, 9}
		for id := range StateID(b.store.Len()) {
			var want []StateID
			for e := range b.store.EdgesFrom(id) {
				want = append(want, e.To)
			}
			if got := b.store.Targets(id, nil); !slices.Equal(got, want) {
				t.Fatalf("%s: Targets(%d) = %v, EdgesFrom leads to %v", b.name, id, got, want)
			}
			if got := b.store.Targets(id, slices.Clone(prefix)); !slices.Equal(got, append(slices.Clone(prefix), want...)) {
				t.Fatalf("%s: Targets(%d) after %v = %v, want %v appended", b.name, id, prefix, got, want)
			}
		}
		for _, id := range []StateID{StateID(b.store.Len()), intern.NoState} {
			if got := b.store.Targets(id, prefix); !slices.Equal(got, []StateID{7, 9}) {
				t.Errorf("%s: Targets(%d) past the end = %v, want the buffer back unchanged", b.name, id, got)
			}
		}
	}
}

// TestLabelDictOverflow: a task whose action list is full (65 536 entries)
// continues in a second dictionary entry for the same task, and labels on
// both sides of the boundary keep resolving to themselves.
func TestLabelDictOverflow(t *testing.T) {
	task := ioa.Task{Proc: 1}
	full := make([]ioa.Action, math.MaxUint16+1)
	for i := range full {
		full[i] = ioa.Action{Proc: i}
	}
	d := labelDict{tasks: []ioa.Task{task}, acts: [][]ioa.Action{full}}
	extra := ioa.Action{Proc: -5}
	for range 2 {
		if ti, ai := d.index(task, extra, 0); ti != 1 || ai != 0 || d.tasks[ti] != task || d.acts[ti][ai] != extra {
			t.Fatalf("overflowing action resolved to (%d, %d)", ti, ai)
		}
		if ti, ai := d.index(task, full[40000], 1); ti != 0 || ai != 40000 {
			t.Fatalf("action of the full entry resolved to (%d, %d)", ti, ai)
		}
	}
	if len(d.tasks) != 2 || len(d.acts[0]) != len(full) {
		t.Errorf("dictionary has %d entries, first with %d actions", len(d.tasks), len(d.acts[0]))
	}
}

// TestPredTablePacked: predecessor links survive the packing — roots and
// unrecorded IDs read as the zero link, everything else as stored.
func TestPredTablePacked(t *testing.T) {
	p := predTable{keep: true}
	links := []pred{
		{},
		{from: 0, task: ioa.Task{Proc: 1}, act: ioa.Action{Payload: "a"}, has: true},
		{from: 1, task: ioa.Task{Proc: 2}, act: ioa.Action{Payload: "b"}, has: true},
		{from: 0, task: ioa.Task{Proc: 1}, act: ioa.Action{Payload: "b"}, has: true},
	}
	for _, l := range links {
		p.add(l)
	}
	for id, l := range links {
		if got := p.Pred(StateID(id)); got != l {
			t.Errorf("Pred(%d) = %+v, want %+v", id, got, l)
		}
	}
	if got := p.Pred(StateID(len(links))); got != (pred{}) {
		t.Errorf("Pred past the end = %+v", got)
	}
}
