package explore_test

// Tests of Refute's phase 1, the union safety sweep: a differential suite
// against the per-assignment sweep it replaced (kept below as the oracle),
// a second one holding the sweep over α_0 … α_n, where the symmetry orbits
// are the input weights, equal to the sweep over all 2^n roots, the orbit
// counts that reduction rests on, SHA-256 pins
// of whole reports, the budget and progress contracts of the single sweep
// build, and the release of the classification graph on a cancelled
// refutation.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync/atomic"
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

// lopsided is process 0's program in a candidate whose other processes run
// Forward: it forwards its input and decides the answer, except that given
// 0 it decides "2" on answer 1. That is a validity violation exactly where
// process 0 has input 0 and another process input 1 — on no monotone
// assignment, so a sweep of α_0 … α_n alone would miss it. No renaming
// is an automorphism; its spec fixes every process.
type lopsided struct{ protocols.Forward }

func (lopsided) Start(int) map[string]string { return map[string]string{"in": ""} }

func (l lopsided) HandleInit(ctx *process.Context, v string) {
	ctx.Set("in", v)
	l.Forward.HandleInit(ctx, v)
}

func (l lopsided) HandleResponse(ctx *process.Context, svc, resp string) {
	if v, ok := seqtype.DecideValue(resp); ok && svc == l.Service && ctx.Get("in") == "0" && v == "1" {
		ctx.Decide("2")
		return
	}
	l.Forward.HandleResponse(ctx, svc, resp)
}

func buildContrarian(n int) (*system.System, error) {
	return buildOnConsensus(n, func(int) process.Program { return contrarian{protocols.Forward{Service: "k0"}} })
}

func buildLopsided(n int) (*system.System, error) {
	return buildOnConsensus(n, func(i int) process.Program {
		if i == 0 {
			return lopsided{protocols.Forward{Service: "k0"}}
		}
		return protocols.Forward{Service: "k0"}
	})
}

// buildOnConsensus connects n processes, process i running program(i), to
// one wait-free binary consensus object.
func buildOnConsensus(n int, program func(i int) process.Program) (*system.System, error) {
	procs := make([]*process.Process, n)
	eps := make([]int, n)
	for i := range procs {
		procs[i] = process.New(i, program(i))
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
		sweepCase{name: "lopsided-n3",
			build: func() (*system.System, error) { return buildLopsided(3) }},
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

// sweepVerdicts reads Refute's phase-1 verdict off its report: per input
// assignment of AllAssignments, whether the safety sweep certified it. A
// report without Inits ended in phase 1, one certificate per violating
// assignment; a report with Inits passed it.
func sweepVerdicts(sys *system.System, report *explore.Report) []bool {
	assignments := explore.AllAssignments(sys)
	violated := make([]bool, len(assignments))
	if report.Inits != nil {
		return violated
	}
	for i, inputs := range assignments {
		for _, c := range report.Certificates {
			violated[i] = violated[i] || reflect.DeepEqual(c.Inputs, inputs)
		}
	}
	return violated
}

// TestRefuteOrbitSweepMatchesUnion is the differential oracle of the orbit
// reduction: for every registry family with a symmetry spec and every
// violating candidate above, Refute given the canonicalizer
// (RefuteOptions.Canon set, so a family whose orbits are the input weights
// sweeps α_0 … α_n alone) certifies the same assignments and renders the
// same report as Refute sweeping all 2^n roots, per store and symmetry
// setting; where a budget is set, both trip it identically.
func TestRefuteOrbitSweepMatchesUnion(t *testing.T) {
	cases := append(sweepCases(),
		sweepCase{name: "forward-n5",
			build: func() (*system.System, error) { return protocols.BuildForward(5, 0, service.Adversarial) },
			spec:  protocols.ForwardSymmetry(5)},
		sweepCase{name: "tob-n3",
			build: func() (*system.System, error) { return protocols.BuildTOBConsensus(3, 0, service.Adversarial) },
			spec:  protocols.TOBSymmetry(3)})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			canon, err := symmetry.New(sys, tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, store := range []explore.StoreKind{explore.StoreDense, explore.StoreSpill} {
				for _, sym := range []bool{false, true} {
					label := fmt.Sprintf("%v sym=%v", store, sym)
					opt := explore.BuildOptions{Store: store, Workers: 1, MaxStates: tc.maxStates}
					if sym {
						opt.Symmetry = canon
					}
					union, unionErr := explore.Refute(sys, 1, explore.RefuteOptions{Build: opt})
					orbits, err := explore.Refute(sys, 1, explore.RefuteOptions{Build: opt, Canon: canon})
					if tc.maxStates > 0 {
						var want, got *explore.LimitError
						if !errors.As(unionErr, &want) || !errors.As(err, &got) || *want != *got {
							t.Fatalf("%s: budget errors differ: union %v, orbits %v", label, unionErr, err)
						}
						continue
					}
					if fmt.Sprint(unionErr) != fmt.Sprint(err) {
						t.Fatalf("%s: union %v, orbits %v", label, unionErr, err)
					}
					if err != nil {
						// tob n=3's hook search on the quotient fails alike
						// on both sides, after phase 1.
						continue
					}
					if got, want := sweepVerdicts(sys, orbits), sweepVerdicts(sys, union); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: violated %v, union says %v", label, got, want)
					}
					if got, want := orbits.String(), union.String(); got != want {
						t.Errorf("%s: report differs from the union sweep's:\n%s\n--- union\n%s", label, got, want)
					}
					union.Close()
					orbits.Close()
				}
			}
		})
	}
}

// TestOrbitClassCounts pins how many symmetry orbits the 2^n roots fall
// into. A family whose orbits are the input weights has n+1, and their
// first members in assignment order are α_0 … α_n (assignment 2^w − 1), so
// Refute's sweep graph is the Lemma 4 graph. Register-vote n=3 gets no
// reduction: its weight-1 roots canonicalize apart, because the renaming
// relabels a pending read of V_i without restoring the program's ascending
// read order.
func TestOrbitClassCounts(t *testing.T) {
	type row struct {
		name    string
		build   func() (*system.System, error)
		spec    symmetry.Spec
		classes int
	}
	var rows []row
	for n := 2; n <= 5; n++ {
		rows = append(rows, row{fmt.Sprintf("forward-n%d", n),
			func() (*system.System, error) { return protocols.BuildForward(n, 0, service.Adversarial) },
			protocols.ForwardSymmetry(n), n + 1})
	}
	for n := 2; n <= 3; n++ {
		rows = append(rows, row{fmt.Sprintf("tob-n%d", n),
			func() (*system.System, error) { return protocols.BuildTOBConsensus(n, 0, service.Adversarial) },
			protocols.TOBSymmetry(n), n + 1})
	}
	rows = append(rows,
		row{"registervote-n2", func() (*system.System, error) { return protocols.BuildRegisterVote(2) },
			protocols.RegisterVoteSymmetry(2), 3},
		row{"registervote-n3", func() (*system.System, error) { return protocols.BuildRegisterVote(3) },
			protocols.RegisterVoteSymmetry(3), 8})
	for _, r := range rows {
		sys, err := r.build()
		if err != nil {
			t.Fatal(err)
		}
		canon, err := symmetry.New(sys, r.spec)
		if err != nil {
			t.Fatal(err)
		}
		// firsts[c] is the first assignment whose canonical root is the
		// c-th distinct one.
		seen := map[string]bool{}
		var firsts []int
		for i, inputs := range explore.AllAssignments(sys) {
			root, err := explore.ApplyInputs(sys, inputs)
			if err != nil {
				t.Fatal(err)
			}
			if fp := string(sys.AppendFingerprint(nil, canon.Canonical(root))); !seen[fp] {
				seen[fp] = true
				firsts = append(firsts, i)
			}
		}
		if len(firsts) != r.classes {
			t.Errorf("%s: %d orbit classes, want %d", r.name, len(firsts), r.classes)
		} else if n := len(sys.ProcessIDs()); r.classes == n+1 {
			for w, i := range firsts {
				if i != 1<<w-1 {
					t.Errorf("%s: class %d starts at assignment %d, want α_%d (%d)", r.name, w, i, w, 1<<w-1)
				}
			}
		}
	}
}

// cutContext turns Canceled at its cut-th Err call (never when cut is 0)
// and counts the calls.
type cutContext struct {
	context.Context
	calls atomic.Int64
	cut   int64
}

func (c *cutContext) Err() error {
	if n := c.calls.Add(1); c.cut > 0 && n >= c.cut {
		return context.Canceled
	}
	return nil
}

// TestRefuteReleasesGraphOnCancel: forward n=4 on the spill store, scenarios
// on two workers, with the context cancelled at each of the Err calls a
// full refutation makes (all on the calling goroutine), in turn. Every cut
// returns context.Canceled with no spill descriptor left open — also after
// phase 2, whose classification graph the hook search and the failure
// scenarios hold (given the canonicalizer, that graph is phase 1's).
func TestRefuteReleasesGraphOnCancel(t *testing.T) {
	sys := mustForward(t, 4, 0, service.Adversarial)
	canon, err := symmetry.New(sys, protocols.ForwardSymmetry(4))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, c := range []explore.Canonicalizer{nil, canon} {
		refute := func(ctx *cutContext) error {
			ctx.Context = context.Background()
			report, err := explore.Refute(sys, 1, explore.RefuteOptions{
				Build: explore.BuildOptions{Store: explore.StoreSpill, SpillDir: dir, Workers: 2, Ctx: ctx},
				Canon: c,
			})
			report.Close()
			return err
		}
		full := &cutContext{}
		if err := refute(full); err != nil {
			t.Fatal(err)
		}
		for cut := int64(1); cut < full.calls.Load(); cut++ {
			if err := refute(&cutContext{cut: cut}); !errors.Is(err, context.Canceled) {
				t.Fatalf("canon=%v: cut at call %d of %d: %v, want context.Canceled", c != nil, cut, full.calls.Load(), err)
			}
			if open := descriptorsUnder(t, dir); open != 0 {
				t.Fatalf("canon=%v: cut at call %d of %d: %d spill descriptors left open", c != nil, cut, full.calls.Load(), open)
			}
		}
	}
}
