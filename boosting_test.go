package boosting_test

// Public-API tests of the boosting façade: the golden exploration table
// (exact state/edge counts per registry protocol, asserted against every
// store backend and both engines), store parity down to IDs and reports,
// and the option plumbing (progress, cancellation, state budgets).

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/ioa-lab/boosting"
)

// stores under test: every backend must produce identical results.
var stores = []struct {
	name  string
	store boosting.Store
}{
	{"dense", boosting.DenseStore},
	{"spill", boosting.SpillStore},
}

// TestGoldenExploration pins the exhaustive state/edge counts of the
// finite registry protocols (G(C) from all monotone initializations,
// Lemma 4's graph). The counts are facts about the paper's model as
// implemented; any engine or store change that shifts them is a
// correctness regression, not a tuning effect.
func TestGoldenExploration(t *testing.T) {
	golden := []struct {
		protocol      string
		n, f          int
		states, edges int
	}{
		{"forward", 2, 0, 66, 186},
		{"forward", 3, 0, 410, 1734},
		{"forward", 4, 0, 2486, 14014},
		{"registervote", 2, 0, 1416, 5574},
		{"tob", 2, 0, 308, 1278},
		{"setboost", 2, 0, 2675, 15040},
	}
	for _, g := range golden {
		for _, s := range stores {
			for _, workers := range []int{1, 4} {
				if testing.Short() && (g.states > 2000 || workers > 1) {
					continue
				}
				chk, err := boosting.New(g.protocol, g.n, g.f,
					boosting.WithStore(s.store), boosting.WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				c, err := chk.ClassifyInits()
				if err != nil {
					t.Fatalf("%s n=%d %s w=%d: %v", g.protocol, g.n, s.name, workers, err)
				}
				if c.Graph.Size() != g.states || c.Graph.Edges() != g.edges {
					t.Errorf("%s n=%d %s w=%d: %d states / %d edges, want %d / %d",
						g.protocol, g.n, s.name, workers,
						c.Graph.Size(), c.Graph.Edges(), g.states, g.edges)
				}
			}
		}
	}
}

// TestGoldenInfiniteFamilies pins the overflow behaviour of the
// detector-bearing registry families: their failure-free graphs are
// infinite (suspicion responses are pushed unboundedly), so exploration
// must hit the budget at exactly the cap — as a typed *LimitError — on
// every backend.
func TestGoldenInfiniteFamilies(t *testing.T) {
	const budget = 3000
	for _, protocol := range []string{"floodset-p", "evperfect"} {
		for _, s := range stores {
			chk, err := boosting.New(protocol, 3, 0,
				boosting.WithRounds(2), boosting.WithStore(s.store),
				boosting.WithWorkers(1), boosting.WithMaxStates(budget))
			if err != nil {
				t.Fatal(err)
			}
			_, err = chk.Explore(map[int]string{0: "0", 1: "1", 2: "1"})
			var le *boosting.LimitError
			if !errors.As(err, &le) {
				t.Fatalf("%s/%s: want *LimitError, got %v", protocol, s.name, err)
			}
			if !errors.Is(err, boosting.ErrStateExplosion) {
				t.Errorf("%s/%s: LimitError does not match the sentinel", protocol, s.name)
			}
			if le.Limit != budget || le.Explored != budget {
				t.Errorf("%s/%s: LimitError{Limit:%d, Explored:%d}, want %d/%d",
					protocol, s.name, le.Limit, le.Explored, budget, budget)
			}
		}
	}
}

// TestStoreParity asserts the acceptance contract of the store backends:
// dense and spill yield IDENTICAL graphs — same IDs,
// fingerprints, edges, valences, roots — and identical refutation reports,
// serial and parallel, on every finite registry protocol.
func TestStoreParity(t *testing.T) {
	protocols := []struct {
		name string
		n, f int
	}{
		{"forward", 2, 0},
		{"forward", 3, 0},
		{"registervote", 2, 0},
		{"tob", 2, 0},
		{"setboost", 2, 0},
	}
	for _, p := range protocols {
		ref, err := boosting.New(p.name, p.n, p.f, boosting.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.ClassifyInits()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range stores {
			for _, workers := range []int{1, 4} {
				if s.store == boosting.DenseStore && workers == 1 {
					continue // the reference itself
				}
				chk, err := boosting.New(p.name, p.n, p.f,
					boosting.WithStore(s.store), boosting.WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				got, err := chk.ClassifyInits()
				if err != nil {
					t.Fatalf("%s/%s w=%d: %v", p.name, s.name, workers, err)
				}
				assertGraphsIdentical(t, p.name+"/"+s.name, want.Graph, got.Graph)
				if got.BivalentIndex != want.BivalentIndex {
					t.Errorf("%s/%s w=%d: bivalent index %d, want %d",
						p.name, s.name, workers, got.BivalentIndex, want.BivalentIndex)
				}
			}
		}
	}
}

// TestRefutationReportParity: the full refuter output (the user-visible
// report string, certificates included) is byte-identical across store
// backends.
func TestRefutationReportParity(t *testing.T) {
	for _, tc := range []struct {
		name string
		n, f int
	}{
		{"forward", 2, 0},
		{"registervote", 2, 0},
	} {
		var want string
		for _, s := range stores {
			chk, err := boosting.New(tc.name, tc.n, tc.f, boosting.WithStore(s.store))
			if err != nil {
				t.Fatal(err)
			}
			report, err := chk.Refute(1)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, s.name, err)
			}
			if !report.Violated() {
				t.Fatalf("%s/%s: expected a refutation", tc.name, s.name)
			}
			if s.store == boosting.DenseStore {
				want = report.String()
			} else if got := report.String(); got != want {
				t.Errorf("%s/%s: report differs from dense store:\n--- dense\n%s\n--- %s\n%s",
					tc.name, s.name, want, s.name, got)
			}
		}
	}
}

func assertGraphsIdentical(t *testing.T, label string, want, got *boosting.Graph) {
	t.Helper()
	if got.Size() != want.Size() || got.Edges() != want.Edges() {
		t.Fatalf("%s: size %d/%d edges %d/%d", label, got.Size(), want.Size(), got.Edges(), want.Edges())
	}
	if len(got.Roots()) != len(want.Roots()) {
		t.Fatalf("%s: root count %d, want %d", label, len(got.Roots()), len(want.Roots()))
	}
	for i, r := range want.Roots() {
		if got.Roots()[i] != r {
			t.Fatalf("%s: root %d is %d, want %d", label, i, got.Roots()[i], r)
		}
	}
	for id := 0; id < want.Size(); id++ {
		sid := boosting.StateID(id)
		if got.Fingerprint(sid) != want.Fingerprint(sid) {
			t.Fatalf("%s: fingerprint of %d differs", label, id)
		}
		if got.Valence(sid) != want.Valence(sid) {
			t.Fatalf("%s: valence of %d is %v, want %v", label, id, got.Valence(sid), want.Valence(sid))
		}
		ge, we := got.Succs(sid), want.Succs(sid)
		if len(ge) != len(we) {
			t.Fatalf("%s: degree of %d is %d, want %d", label, id, len(ge), len(we))
		}
		for j := range we {
			if ge[j] != we[j] {
				t.Fatalf("%s: edge %d/%d is %+v, want %+v", label, id, j, ge[j], we[j])
			}
		}
		// The adjacency iterator must agree with the materialized slice,
		// edge for edge (on the spill backend it decodes a different
		// representation, so this is a real parity check, not a tautology).
		j := 0
		for e := range got.EdgesFrom(sid) {
			if j >= len(we) {
				t.Fatalf("%s: EdgesFrom(%d) yielded more than %d edges", label, id, len(we))
			}
			if e != we[j] {
				t.Fatalf("%s: EdgesFrom(%d)[%d] = %+v, want %+v", label, id, j, e, we[j])
			}
			j++
		}
		if j != len(we) {
			t.Fatalf("%s: EdgesFrom(%d) yielded %d edges, want %d", label, id, j, len(we))
		}
	}
}

// TestProtocolsRegistry: the registry is non-empty, names are unique, and
// every entry is constructible.
func TestProtocolsRegistry(t *testing.T) {
	infos := boosting.Protocols()
	if len(infos) < 5 {
		t.Fatalf("registry has %d entries", len(infos))
	}
	seen := map[string]bool{}
	for _, info := range infos {
		if info.Name == "" || info.Description == "" {
			t.Errorf("registry entry %+v incomplete", info)
		}
		if seen[info.Name] {
			t.Errorf("duplicate registry name %q", info.Name)
		}
		seen[info.Name] = true
		n := 2
		if info.Name == "fdboost" || info.Name == "suspectcollector" || info.Name == "evperfect" ||
			info.Name == "floodset-p" {
			n = 3
		}
		if _, err := boosting.New(info.Name, n, 0); err != nil {
			t.Errorf("New(%q, %d, 0): %v", info.Name, n, err)
		}
	}
	if _, err := boosting.New("nonsense", 2, 0); err == nil {
		t.Error("want error for unknown protocol")
	} else if !strings.Contains(err.Error(), "nonsense") {
		t.Errorf("unhelpful error %v", err)
	}
}

// TestFacadeProgressAndCancellation: WithProgress streams per-level
// reports through the façade, and WithContext cancels from inside one.
func TestFacadeProgressAndCancellation(t *testing.T) {
	var reports []boosting.Progress
	chk, err := boosting.New("forward", 2, 0,
		boosting.WithWorkers(1),
		boosting.WithProgress(func(p boosting.Progress) { reports = append(reports, p) }))
	if err != nil {
		t.Fatal(err)
	}
	g, err := chk.Explore(map[int]string{0: "0", 1: "1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("no progress reports")
	}
	last := reports[len(reports)-1]
	if last.States != g.Size() || last.Edges != g.Edges() || last.Frontier != 0 {
		t.Errorf("final report %+v does not match graph (%d states, %d edges)", last, g.Size(), g.Edges())
	}

	ctx, cancel := context.WithCancel(context.Background())
	chk2, err := boosting.New("forward", 3, 0,
		boosting.WithWorkers(1),
		boosting.WithContext(ctx),
		boosting.WithProgress(func(p boosting.Progress) {
			if p.Level == 1 {
				cancel()
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if _, err := chk2.ClassifyInits(); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ClassifyInits: %v", err)
	}
	if _, err := chk2.Refute(1); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Refute: %v", err)
	}
	if _, err := chk2.RunBatch([]boosting.RunConfig{{Inputs: map[int]string{0: "0"}}}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled RunBatch: %v", err)
	}
}

// TestNewFromSystemWithoutGraphAnalysis: a custom detector-bearing system
// (infinite failure-free graph) is refutable through NewFromSystem when
// the caller opts out of the graph phases; without the option the same
// analysis overflows its state budget.
func TestNewFromSystemWithoutGraphAnalysis(t *testing.T) {
	src, err := boosting.New("floodset-p", 3, 0, boosting.WithRounds(2))
	if err != nil {
		t.Fatal(err)
	}
	sys := src.System()

	chk := boosting.NewFromSystem(sys,
		boosting.WithoutGraphAnalysis(), boosting.WithMaxRounds(500), boosting.WithMaxStates(5000))
	report, err := chk.Refute(1)
	if err != nil {
		t.Fatalf("Refute with WithoutGraphAnalysis: %v", err)
	}
	if !report.Violated() {
		t.Error("expected the Theorem 10 candidate to be refuted")
	}

	plain := boosting.NewFromSystem(sys, boosting.WithMaxRounds(500), boosting.WithMaxStates(5000))
	var le *boosting.LimitError
	if _, err := plain.Refute(1); !errors.As(err, &le) {
		t.Errorf("without the option, want *LimitError from the infinite graph, got %v", err)
	}
}

// TestRunParityAcrossFacade: Run through the façade equals the historical
// engine behaviour (decisions, termination, rounds) on the quickstart
// scenario.
func TestRunParityAcrossFacade(t *testing.T) {
	chk, err := boosting.New("forward", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[int]string{0: "0", 1: "1"}
	res, err := chk.Run(boosting.RunConfig{Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("quickstart run did not terminate")
	}
	if err := boosting.CheckConsensus(boosting.ConsensusRun{Inputs: inputs, Decisions: res.Decisions, Done: res.Done}); err != nil {
		t.Fatal(err)
	}
}
