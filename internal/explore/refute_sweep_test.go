package explore_test

// Tests of Refute's phase 1, the union safety sweep: a differential suite
// against the per-assignment sweep it replaced (kept below as the oracle),
// SHA-256 pins of whole reports, the budget and progress contracts of the
// single sweep build.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/ioa-lab/boosting/internal/explore"
	"github.com/ioa-lab/boosting/internal/process"
	"github.com/ioa-lab/boosting/internal/protocols"
	"github.com/ioa-lab/boosting/internal/seqtype"
	"github.com/ioa-lab/boosting/internal/service"
	"github.com/ioa-lab/boosting/internal/servicetype"
	"github.com/ioa-lab/boosting/internal/symmetry"
	"github.com/ioa-lab/boosting/internal/system"
)

// oracleSweep is the safety sweep as it was before the union graph: one
// BuildGraph per input assignment, every vertex visited in lexicographic
// fingerprint order, the first violation (validity before agreement)
// reported with the length of its BFS-tree witness path.
func oracleSweep(sys *system.System, opt explore.BuildOptions) ([]explore.Certificate, error) {
	var certs []explore.Certificate
	for _, inputs := range explore.AllAssignments(sys) {
		cert, err := oracleSweepOne(sys, inputs, opt)
		if err != nil {
			return nil, err
		}
		if cert != nil {
			certs = append(certs, *cert)
		}
	}
	return certs, nil
}

func oracleSweepOne(sys *system.System, inputs map[int]string, opt explore.BuildOptions) (*explore.Certificate, error) {
	root, err := explore.ApplyInputs(sys, inputs)
	if err != nil {
		return nil, err
	}
	g, err := explore.BuildGraph(sys, []system.State{root}, opt)
	if err != nil {
		return nil, err
	}
	defer explore.CloseGraphStore(g)
	validValues := map[string]bool{}
	for _, v := range inputs {
		validValues[v] = true
	}
	order := make([]explore.StateID, g.Size())
	fps := make([]string, g.Size())
	for i := range order {
		order[i] = explore.StateID(i)
		fps[i] = g.Fingerprint(explore.StateID(i))
	}
	sort.Slice(order, func(i, j int) bool { return fps[order[i]] < fps[order[j]] })
	for _, id := range order {
		st, _ := g.State(id)
		dec := sys.Decisions(st)
		var values []string
		for _, v := range dec {
			values = append(values, v)
		}
		sort.Strings(values)
		for _, v := range values {
			if !validValues[v] {
				return &explore.Certificate{
					Kind:        explore.KindValidity,
					Description: fmt.Sprintf("decision %q is not any process's input (reachable in %d steps)", v, len(g.WitnessPath(id))),
					Inputs:      inputs,
					Decisions:   dec,
				}, nil
			}
		}
		if len(values) > 1 && values[0] != values[len(values)-1] {
			return &explore.Certificate{
				Kind:        explore.KindAgreement,
				Description: fmt.Sprintf("processes decided %v in one failure-free execution (reachable in %d steps)", dec, len(g.WitnessPath(id))),
				Inputs:      inputs,
				Decisions:   dec,
			}, nil
		}
	}
	return nil, nil
}

// sweepCase is one candidate of the differential matrix.
type sweepCase struct {
	name  string
	build func() (*system.System, error)
	spec  symmetry.Spec
	// maxStates, when set, is a budget both sweeps must trip identically
	// (registervote n=3's eight disjoint graphs total 4.8M vertices).
	maxStates int
}

// contrarian forwards its input to the consensus object and decides the
// opposite of the answer: unanimous inputs end in a validity violation,
// mixed inputs in none — the one candidate here whose verdict at a shared
// vertex depends on which assignment reached it.
type contrarian struct{ protocols.Forward }

func (c contrarian) HandleResponse(ctx *process.Context, svc, resp string) {
	if v, ok := seqtype.DecideValue(resp); ok && svc == c.Service {
		ctx.Decide(map[string]string{"0": "1", "1": "0"}[v])
	}
}

func buildContrarian(n int) (*system.System, error) {
	procs := make([]*process.Process, n)
	eps := make([]int, n)
	for i := range procs {
		procs[i] = process.New(i, contrarian{protocols.Forward{Service: "k0"}})
		eps[i] = i
	}
	obj, err := service.New(service.Config{
		Index:      "k0",
		Type:       servicetype.FromSequential(seqtype.BinaryConsensus()),
		Endpoints:  eps,
		Resilience: n - 1,
		Policy:     service.Adversarial,
	})
	if err != nil {
		return nil, err
	}
	return system.New(procs, []*service.Service{obj})
}

func sweepCases() []sweepCase {
	var cases []sweepCase
	for n := 2; n <= 4; n++ {
		for _, policy := range []service.SilencePolicy{service.Adversarial, service.Benign} {
			cases = append(cases, sweepCase{
				name:  fmt.Sprintf("forward-n%d-%v", n, policy),
				build: func() (*system.System, error) { return protocols.BuildForward(n, 0, policy) },
				spec:  protocols.ForwardSymmetry(n),
			})
		}
	}
	return append(cases,
		sweepCase{name: "contrarian-n3",
			build: func() (*system.System, error) { return buildContrarian(3) },
			spec:  protocols.ForwardSymmetry(3)},
		sweepCase{name: "tob-n2",
			build: func() (*system.System, error) { return protocols.BuildTOBConsensus(2, 0, service.Adversarial) },
			spec:  protocols.TOBSymmetry(2)},
		sweepCase{name: "registervote-n2",
			build: func() (*system.System, error) { return protocols.BuildRegisterVote(2) },
			spec:  protocols.RegisterVoteSymmetry(2)},
		sweepCase{name: "registervote-n3-budget",
			build:     func() (*system.System, error) { return protocols.BuildRegisterVote(3) },
			spec:      protocols.RegisterVoteSymmetry(3),
			maxStates: 2_000},
		sweepCase{name: "setboost-n2",
			build: func() (*system.System, error) { return protocols.BuildSetBoost(2) },
			spec:  protocols.SetBoostSymmetry(2)},
	)
}

// TestRefuteSweepMatchesOracle: across store × symmetry × workers,
// Refute's certificates (Kind, Inputs, Failed, Decisions, Description with
// its step count) and Report.String() equal what the per-assignment sweep
// produces in the same configuration; where the sweep finds nothing, the
// report is the same string in every configuration.
func TestRefuteSweepMatchesOracle(t *testing.T) {
	for _, tc := range sweepCases() {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			canon, err := symmetry.New(sys, tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			plain := map[bool]string{} // the survivor's report, per symmetry setting
			for _, store := range []explore.StoreKind{explore.StoreDense, explore.StoreSpill} {
				for _, sym := range []bool{false, true} {
					for _, workers := range []int{1, 4} {
						label := fmt.Sprintf("%v sym=%v w=%d", store, sym, workers)
						opt := explore.BuildOptions{Store: store, Workers: workers, MaxStates: tc.maxStates}
						if sym {
							opt.Symmetry = canon
						}
						want, wantErr := oracleSweep(sys, opt)
						report, err := explore.Refute(sys, 1, explore.RefuteOptions{Build: opt})
						if tc.maxStates > 0 {
							var wantLimit, gotLimit *explore.LimitError
							if !errors.As(wantErr, &wantLimit) || !errors.As(err, &gotLimit) || *wantLimit != *gotLimit {
								t.Fatalf("%s: budget errors differ: oracle %v, Refute %v", label, wantErr, err)
							}
							continue
						}
						if wantErr != nil || err != nil {
							t.Fatalf("%s: oracle %v, Refute %v", label, wantErr, err)
						}
						if len(want) == 0 {
							if report.Inits == nil {
								t.Fatalf("%s: oracle sweep is clean but Refute stopped in phase 1:\n%s", label, report)
							}
							if prev, ok := plain[sym]; !ok {
								plain[sym] = report.String()
							} else if got := report.String(); got != prev {
								t.Errorf("%s: report differs across configurations:\n%s\n--- first\n%s", label, got, prev)
							}
						} else {
							if !reflect.DeepEqual(report.Certificates, want) {
								t.Errorf("%s: certificates differ:\n got %+v\nwant %+v", label, report.Certificates, want)
							}
							oracle := &explore.Report{Claimed: 1, Certificates: want}
							if got := report.String(); got != oracle.String() {
								t.Errorf("%s: report differs from the oracle's:\n%s\n--- oracle\n%s", label, got, oracle)
							}
						}
						report.Close()
					}
				}
			}
		})
	}
}

// TestRefuteReportPins freezes whole reports: forward n=4 (the value
// bench/expected.json checks cmd/boostcheck against), the two
// safety-violating families, whose certificates come out of the sweep, the
// k-set refuter on both sides of the Section 4 boundary, and a refutation
// that skips the graph phases (the failure-detector construction, whose
// failure-free graph is infinite).
func TestRefuteReportPins(t *testing.T) {
	refute := func(claimed int, opt explore.RefuteOptions) func(*system.System) (*explore.Report, error) {
		return func(sys *system.System) (*explore.Report, error) { return explore.Refute(sys, claimed, opt) }
	}
	kSet := func(k, claimed int) func(*system.System) (*explore.Report, error) {
		return func(sys *system.System) (*explore.Report, error) {
			return explore.RefuteKSet(sys, k, claimed, explore.RefuteOptions{})
		}
	}
	forward := func(n int) func() (*system.System, error) {
		return func() (*system.System, error) { return protocols.BuildForward(n, 0, service.Adversarial) }
	}
	setBoost := func() (*system.System, error) { return protocols.BuildSetBoost(2) }
	for _, tc := range []struct {
		name  string
		build func() (*system.System, error)
		run   func(*system.System) (*explore.Report, error)
		sha   string
	}{
		{"forward-n4", forward(4), refute(1, explore.RefuteOptions{}),
			"edba872581c3113691dbf0ba37b37276ce925da2d46d072821a1b6c1ae23bb85"},
		{"registervote-n2", func() (*system.System, error) { return protocols.BuildRegisterVote(2) }, refute(1, explore.RefuteOptions{}),
			"78777a09a0bd52cd4675499bc745951fce72954c15b6076546782729f77b7eb3"},
		{"setboost-n2", setBoost, refute(1, explore.RefuteOptions{}),
			"5b92d7cb3a3ab30ba9595d9a26d8dcad676eddc19ed0067dddde1dbfd0dd29ef"},
		{"kset-setboost-n2-k1", setBoost, kSet(1, 1),
			"5e7de1f561fdfbc5a3cb357f537ef35c696d7fbbae3e975ca480d9385f3fe976"},
		{"kset-setboost-n2-k2", setBoost, kSet(2, 3),
			"d4b816ea3b2698e6389cf0f50462531265976064ff73768cb59ea4853187be99"},
		{"kset-forward-n3-k1", forward(3), kSet(1, 1),
			"cb170fe8db6f2b8d9747fb2fa92d05e40500e9b63a2307037bb798b158244b1f"},
		{"skipgraph-fdboost-n3", func() (*system.System, error) { return protocols.BuildFDBoost(3, 3) },
			refute(2, explore.RefuteOptions{SkipGraphAnalysis: true}),
			"2d6adcf7f749eb17e021ebe8e77c8efec6f0daf0ab36be7c4c80d40d29cf57a3"},
	} {
		sys, err := tc.build()
		if err != nil {
			t.Fatal(err)
		}
		report, err := tc.run(sys)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sum := sha256.Sum256([]byte(report.String()))
		if got := hex.EncodeToString(sum[:]); got != tc.sha {
			t.Errorf("%s: report SHA-256 %s, want %s\n%s", tc.name, got, tc.sha, report)
		}
		report.Close()
	}
}

// TestRefuteSweepBudget: MaxStates bounds the union graph of the sweep.
// Forward n=4's largest single-assignment graph has 1 066 vertices, its
// Lemma 4 graph 2 486 and the union 4 546, so a budget of 3 000 — enough
// for every graph the refuter used to build — now trips in phase 1, with
// the explored count at the trip point; 4 546 is enough. A budget below the
// 2^n roots themselves trips before a single assignment is enumerated
// (Explored 0), and so does any n whose 2^n does not fit an int: forward
// n=64 at the default budget must fail at once.
func TestRefuteSweepBudget(t *testing.T) {
	sys := mustForward(t, 4, 0, service.Adversarial)
	_, err := explore.Refute(sys, 1, explore.RefuteOptions{Build: explore.BuildOptions{MaxStates: 10}})
	var limit *explore.LimitError
	if !errors.As(err, &limit) || limit.Limit != 10 || limit.Explored != 0 {
		t.Errorf("MaxStates 10: got %v (%+v), want a LimitError at 0 explored", err, limit)
	}
	wide := mustForward(t, 64, 0, service.Adversarial)
	_, err = explore.Refute(wide, 1, explore.RefuteOptions{})
	if !errors.As(err, &limit) || limit.Limit != 200_000 || limit.Explored != 0 {
		t.Errorf("n=64: got %v (%+v), want a LimitError at 0 explored", err, limit)
	}
	for _, workers := range []int{1, 4} {
		_, err := explore.Refute(sys, 1, explore.RefuteOptions{Build: explore.BuildOptions{MaxStates: 3000, Workers: workers}})
		var limit *explore.LimitError
		if !errors.As(err, &limit) || limit.Limit != 3000 || limit.Explored != 3000 {
			t.Errorf("workers=%d: MaxStates 3000: got %v, want a LimitError at 3000 explored", workers, err)
		}
		report, err := explore.Refute(sys, 1, explore.RefuteOptions{Build: explore.BuildOptions{MaxStates: 4546, Workers: workers}})
		if err != nil {
			t.Errorf("workers=%d: MaxStates 4546: %v", workers, err)
		}
		report.Close()
	}
}

// TestRefuteProgressSerialized pins the BuildOptions.Progress contract —
// "calls are serialized" — for Refute on four workers: the recorder below
// is deliberately unsynchronized, so under -race any concurrent report is
// a detected race. The reports must form exactly two builds (the sweep,
// then Lemma 4), each with Level counting up from 0 and States and Edges
// never decreasing.
func TestRefuteProgressSerialized(t *testing.T) {
	sys := mustForward(t, 3, 0, service.Adversarial)
	var reports []explore.Progress
	report, err := explore.Refute(sys, 1, explore.RefuteOptions{Build: explore.BuildOptions{
		Workers:  4,
		Progress: func(p explore.Progress) { reports = append(reports, p) },
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer report.Close()
	builds := 0
	for i, p := range reports {
		if p.Level == 0 {
			builds++
			continue
		}
		prev := reports[i-1]
		if p.Level != prev.Level+1 || p.States < prev.States || p.Edges < prev.Edges {
			t.Fatalf("report %d: %+v after %+v is not the next level of one build", i, p, prev)
		}
	}
	if builds != 2 {
		t.Errorf("progress reports form %d builds, want 2 (sweep, Lemma 4)", builds)
	}
	if last := reports[len(reports)-1]; last.Frontier != 0 || last.States != report.Inits.Graph.Size() {
		t.Errorf("final report %+v does not close the Lemma 4 graph (%d states)", last, report.Inits.Graph.Size())
	}
}
