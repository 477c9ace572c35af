package explore_test

// End-to-end nil-vs-empty regression: two system states that differ only in
// nil-vs-empty component containers must produce identical fingerprints —
// and therefore intern to the same StateID in every store backend — and
// must be j-similar at every process (the buffer comparisons treat a nil
// queue and an empty queue as equal).

import (
	"bytes"
	"testing"

	"github.com/ioa-lab/boosting/internal/explore"
	"github.com/ioa-lab/boosting/internal/process"
	"github.com/ioa-lab/boosting/internal/protocols"
	"github.com/ioa-lab/boosting/internal/service"
	"github.com/ioa-lab/boosting/internal/system"
)

func TestNilVsEmptyStatesInternIdentically(t *testing.T) {
	sys, err := protocols.BuildForward(2, 0, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	st := sys.InitialState()

	// Rebuild the same state with aggressively "empty but allocated"
	// containers in every component.
	procs2 := make([]process.State, len(sys.ProcessIDs()))
	for i := range procs2 {
		ps := st.Proc(i)
		ps.Outbox = []process.Outgoing{}
		if ps.Vars == nil {
			ps.Vars = map[string]string{}
		}
		procs2[i] = ps
	}
	svcs2 := make([]service.State, len(sys.ServiceIDs()))
	for i := range svcs2 {
		ss := st.Svc(i)
		ss.Inv = ss.Inv.With(0, []string{}).With(1, nil)
		ss.Resp = service.Buffers{}
		svcs2[i] = ss
	}
	st2, err := sys.StateOf(procs2, svcs2)
	if err != nil {
		t.Fatal(err)
	}

	fp1 := sys.AppendFingerprint(nil, st)
	fp2 := sys.AppendFingerprint(nil, st2)
	if !bytes.Equal(fp1, fp2) {
		t.Fatalf("fingerprints differ:\n%q\n%q", fp1, fp2)
	}

	// Interning through a graph build: both variants resolve to the same
	// vertex in every backend.
	for _, kind := range []explore.StoreKind{explore.StoreDense, explore.StoreSpill} {
		g, err := explore.BuildGraph(sys, []system.State{st}, explore.BuildOptions{Workers: 1, Store: kind, SpillDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer explore.CloseGraphStore(g)
		id1, ok1 := g.Lookup(string(fp1))
		id2, ok2 := g.Lookup(string(fp2))
		if !ok1 || !ok2 || id1 != id2 {
			t.Errorf("%v: variants intern to %v/%v (found %v/%v), want one vertex", kind, id1, id2, ok1, ok2)
		}
	}

	// Similarity: nil-vs-empty differences are invisible to the Section 3.5
	// buffer comparisons.
	for _, j := range sys.ProcessIDs() {
		if !explore.JSimilar(sys, st, st2, j) {
			t.Errorf("states not %d-similar despite identical encodings", j)
		}
	}
}
