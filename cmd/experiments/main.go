// Command experiments reproduces every figure/lemma/theorem-level artifact
// of the paper (the experiment index E1–E21 of DESIGN.md, plus the
// E27–E29, E31 and E32 engine rows: symmetry quotient, spilled states,
// spilled adjacency, a silence-policy variant answered from a reopened
// durable graph, component interning) and emits the results as the
// markdown report stored in EXPERIMENTS.md.
// -only regenerates a subset of rows.
//
// Usage:
//
//	experiments -workers 8 > EXPERIMENTS.md
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"github.com/ioa-lab/boosting"
	"github.com/ioa-lab/boosting/internal/cliflags"
	"github.com/ioa-lab/boosting/internal/codec"
	"github.com/ioa-lab/boosting/internal/ioa"
	"github.com/ioa-lab/boosting/internal/linearize"
	"github.com/ioa-lab/boosting/internal/seqtype"
	"github.com/ioa-lab/boosting/internal/service"
	"github.com/ioa-lab/boosting/internal/servicetype"
)

type result struct {
	id       string
	artifact string
	claim    string
	measured string
	ok       bool
}

// commonOpts is the shared façade option set of every experiment (resolved
// once from the shared flag block before the experiments run).
var commonOpts []boosting.Option

// spillDir is the parsed -spilldir value, honoured by the E28 spill builds
// ("" = the OS temp directory).
var spillDir string

// newChecker builds a registry candidate honouring the shared flags.
func newChecker(name string, n, f int, opts ...boosting.Option) (*boosting.Checker, error) {
	return boosting.New(name, n, f, append(append([]boosting.Option{}, commonOpts...), opts...)...)
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", cliflags.Describe(err))
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	common := cliflags.Register(fs)
	only := fs.String("only", "", "comma-separated experiment ids to run (e.g. E29,E31); default: all")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The artifact rows reproduce structure of the concrete G(C) — per-id
	// applicability persistence (E2) and positional hook-end similarity
	// (E5) do not transfer verbatim to the quotient modulo renaming — so
	// the shared -symmetry knob is not propagated; E27 measures the
	// quotient explicitly, reduced vs unreduced.
	if common.Symmetry {
		fmt.Fprintln(os.Stderr, "experiments: -symmetry ignored — artifact rows reproduce the concrete G(C); E27 measures the quotient explicitly")
		common.Symmetry = false
	}
	// The artifact rows extract witness executions (hooks, certificates),
	// so dropping the predecessor links would fail most of them; E29
	// measures the witness-free configuration explicitly.
	if common.NoWitness {
		fmt.Fprintln(os.Stderr, "experiments: -nowitness ignored — artifact rows reconstruct witness executions; E29 measures the witness-free configuration explicitly")
		common.NoWitness = false
	}
	// One durable directory holds exactly one graph, and the artifact rows
	// build many; E31 drives the durable commit + reopen explicitly, in a
	// directory of its own.
	if common.GraphDir != "" {
		fmt.Fprintln(os.Stderr, "experiments: -graphdir ignored — one directory holds one graph and the rows build many; E31 drives the durable commit + reopen explicitly")
		common.GraphDir = ""
	}
	opts, err := common.Options()
	if err != nil {
		return err
	}
	commonOpts = opts
	spillDir = common.SpillDir
	// -only picks a subset of rows by id (the heavy engine row E29 builds
	// a million-state frontier, so regenerating one row without re-running
	// the whole index matters).
	selected := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.ToUpper(strings.TrimSpace(id)); id != "" {
			selected[id] = true
		}
	}
	var results []result
	experiments := []struct {
		id string
		fn func() (result, error)
	}{
		{"E1", e1CanonicalAtomicObject},
		{"E2", e2Applicability},
		{"E3", e3BivalentInit},
		{"E4", e4Hook},
		{"E5", e5Similarity},
		{"E6", e6RefuteAtomic},
		{"E6B", e6bBenignAblation},
		{"E7", e7SetBoost},
		{"E8", e8TOB},
		{"E9", e9RefuteOblivious},
		{"E10", e10PerfectFD},
		{"E11", e11EventuallyPerfectFD},
		{"E12", e12FDBoost},
		{"E13", e13RefuteGeneral},
		{"E14", e14CanonicalConsensus},
		{"E15", e15KSetType},
		{"E16", e16Linearizability},
		{"E17", e17RegisterVote},
		{"E18", e18SetBoostIsNotConsensus},
		{"E19", e19HookOnTOB},
		{"E20", e20KSetBoundary},
		{"E21", e21Lemma3AndFairness},
		{"E27", e27SymmetryReduction},
		{"E28", e28SpillStore},
		{"E29", e29SpillAdjacency},
		{"E31", e31PolicyVariantReopen},
		{"E32", e32ComponentInterning},
	}
	if len(selected) > 0 {
		known := map[string]bool{}
		for _, exp := range experiments {
			known[exp.id] = true
		}
		for id := range selected {
			if !known[id] {
				return fmt.Errorf("-only: unknown experiment id %q", id)
			}
		}
	}
	for _, exp := range experiments {
		if len(selected) > 0 && !selected[exp.id] {
			continue
		}
		r, err := exp.fn()
		if err != nil {
			return err
		}
		results = append(results, r)
	}
	printReport(results)
	return nil
}

func printReport(results []result) {
	fmt.Println("# Experiments: paper vs. measured")
	fmt.Println()
	fmt.Println("Generated by `go run ./cmd/experiments`. Every row reproduces one artifact")
	fmt.Println("of the paper (figure, lemma or theorem) on concrete finite systems; the")
	fmt.Println("\"measured\" column is computed by the framework at generation time.")
	fmt.Println("Benchmarks timing each row: `go test -bench=. -benchmem` (see bench_test.go).")
	fmt.Println("The \"Performance ledger\" section at the end of the committed file is not")
	fmt.Println("generated: it records `go run ./bench` comparisons and is kept by hand.")
	fmt.Println()
	fmt.Println("| ID | Paper artifact | Paper claim | Measured | Agrees |")
	fmt.Println("|----|----------------|-------------|----------|--------|")
	for _, r := range results {
		mark := "✓"
		if !r.ok {
			mark = "✗"
		}
		fmt.Printf("| %s | %s | %s | %s | %s |\n", r.id, r.artifact, r.claim, r.measured, mark)
	}
	fmt.Println()
	fmt.Println("## Reading the table")
	fmt.Println()
	fmt.Println("The paper proves *shape* statements, not performance numbers; the relevant")
	fmt.Println("reproduction criterion is **who wins and where the boundary falls**:")
	fmt.Println()
	fmt.Println("- consensus over f-resilient services, claiming f+1 failures → refuted")
	fmt.Println("  (E6, E9, E13: Theorems 2, 9, 10);")
	fmt.Println("- 2-set consensus (E7) and sparsely-connected failure detectors (E12) →")
	fmt.Println("  boosting succeeds, exactly at the paper's stated escape hatches;")
	fmt.Println("- the proof artifacts themselves — bivalent initializations (E3), hooks")
	fmt.Println("  (E4), similarity (E5) — are exhibited mechanically on G(C).")
}

// e1: Fig. 1 canonical atomic object conformance.
func e1CanonicalAtomicObject() (result, error) {
	eps := []int{0, 1, 2}
	obj, err := service.New(service.Config{
		Index: "k", Type: servicetype.FromSequential(seqtype.BinaryConsensus()),
		Endpoints: eps, Resilience: 1, Policy: service.Adversarial,
	})
	if err != nil {
		return result{}, err
	}
	st := obj.InitialState()
	st, _ = obj.Invoke(st, 0, seqtype.Init("1"))
	st, _ = obj.Invoke(st, 0, seqtype.Init("0"))
	st, _, _ = obj.Apply(st, ioa.PerformTask("k", 0))
	st, _, _ = obj.Apply(st, ioa.PerformTask("k", 0))
	resp := st.PendingResponses(0)
	fifoOK := len(resp) == 2 && resp[0] == seqtype.Decide("1") && resp[1] == seqtype.Decide("1")
	st = obj.Fail(st, 1)
	st = obj.Fail(st, 2)
	_, silenced := obj.Enabled(st, ioa.OutputTask("k", 0))
	act, _ := obj.Enabled(st, ioa.OutputTask("k", 0))
	silencedOK := silenced && act.Type == ioa.ActDummyOutput
	ok := fifoOK && silencedOK
	return result{
		id: "E1", artifact: "Fig. 1 canonical atomic object",
		claim:    "FIFO per endpoint; first value wins; >f failures permit silence",
		measured: fmt.Sprintf("FIFO+δ ✓; dummy enabled after 2 > f=1 failures: %v", silencedOK),
		ok:       ok,
	}, nil
}

// e2: Lemma 1 applicability persistence.
func e2Applicability() (result, error) {
	chk, err := newChecker("forward", 2, 0)
	if err != nil {
		return result{}, err
	}
	c, err := chk.ClassifyInits()
	if err != nil {
		return result{}, err
	}
	defer boosting.CloseGraph(c.Graph)
	sys := chk.System()
	g := c.Graph
	violations, checked := 0, 0
	for _, root := range c.Roots {
		seen := make([]bool, g.Size())
		queue := []boosting.StateID{root}
		seen[root] = true
		for head := 0; head < len(queue); head++ {
			id := queue[head]
			st, _ := g.State(id)
			for _, task := range sys.Tasks() {
				if !sys.Applicable(st, task) {
					continue
				}
				// Every successor edge not labelled task must preserve
				// applicability of task.
				for e := range g.EdgesFrom(id) {
					if e.Task == task {
						continue
					}
					next, _ := g.State(e.To)
					checked++
					if !sys.Applicable(next, task) {
						violations++
					}
				}
			}
			for e := range g.EdgesFrom(id) {
				if !seen[e.To] {
					seen[e.To] = true
					queue = append(queue, e.To)
				}
			}
		}
	}
	return result{
		id: "E2", artifact: "Lemma 1 (applicability persists)",
		claim:    "applicable tasks stay applicable until scheduled",
		measured: fmt.Sprintf("%d (state, task, other-edge) triples checked, %d violations", checked, violations),
		ok:       violations == 0 && checked > 0,
	}, nil
}

// e3: Lemma 4 bivalent initialization.
func e3BivalentInit() (result, error) {
	chk, err := newChecker("forward", 2, 0)
	if err != nil {
		return result{}, err
	}
	c, err := chk.ClassifyInits()
	if err != nil {
		return result{}, err
	}
	defer boosting.CloseGraph(c.Graph)
	vals := make([]string, len(c.Valences))
	for i, v := range c.Valences {
		vals[i] = v.String()
	}
	ok := c.BivalentIndex >= 0 &&
		c.Valences[0] == boosting.ZeroValent &&
		c.Valences[len(c.Valences)-1] == boosting.OneValent
	return result{
		id: "E3", artifact: "Lemma 4 (bivalent initialization)",
		claim:    "α_0 0-valent, α_n 1-valent, some α_i bivalent",
		measured: strings.Join(vals, ", "),
		ok:       ok,
	}, nil
}

// e4: Fig. 2/3, Lemma 5 hook.
func e4Hook() (result, error) {
	chk, err := newChecker("forward", 2, 0)
	if err != nil {
		return result{}, err
	}
	c, err := chk.ClassifyInits()
	if err != nil {
		return result{}, err
	}
	defer boosting.CloseGraph(c.Graph)
	hs, err := chk.FindHook(c.Graph, c.Roots[c.BivalentIndex])
	if err != nil {
		return result{}, err
	}
	if hs.Hook == nil {
		return result{
			id: "E4", artifact: "Fig. 2/3, Lemma 5 (hook)",
			claim: "round-robin construction yields a hook", measured: "no hook", ok: false,
		}, nil
	}
	return result{
		id: "E4", artifact: "Fig. 2/3, Lemma 5 (hook)",
		claim:    "round-robin construction yields a hook",
		measured: fmt.Sprintf("hook at G(C) (%d vertices): e=%v, e'=%v", c.Graph.Size(), hs.Hook.E, hs.Hook.EPrime),
		ok:       true,
	}, nil
}

// e5: Section 3.5 similarity + Lemma 7 failure construction.
func e5Similarity() (result, error) {
	chk, err := newChecker("forward", 2, 0)
	if err != nil {
		return result{}, err
	}
	c, err := chk.ClassifyInits()
	if err != nil {
		return result{}, err
	}
	defer boosting.CloseGraph(c.Graph)
	hs, err := chk.FindHook(c.Graph, c.Roots[c.BivalentIndex])
	if err != nil || hs.Hook == nil {
		return result{}, fmt.Errorf("hook: %w", err)
	}
	sys := chk.System()
	s0, _ := c.Graph.State(hs.Hook.Alpha0)
	s1, _ := c.Graph.State(hs.Hook.Alpha1)
	who, similar := boosting.SomeSimilarity(sys, s0, s1, boosting.SimilarityOptions{})
	bothDiverge := true
	for _, st := range []boosting.State{s0, s1} {
		cur, _, failErr := sys.Fail(st, 0)
		if failErr != nil {
			return result{}, failErr
		}
		run, runErr := chk.RunFrom(cur, c.Assignments[c.BivalentIndex])
		if runErr != nil {
			return result{}, runErr
		}
		bothDiverge = bothDiverge && run.Diverged && !run.Done
	}
	return result{
		id: "E5", artifact: "Sec. 3.5 similarity / Lemma 7",
		claim:    "hook ends similar at shared component; failing J silences it on both sides identically",
		measured: fmt.Sprintf("ends similar at %s (found=%v); mirrored post-failure runs both diverge: %v", who, similar, bothDiverge),
		ok:       similar && who == "k0" && bothDiverge,
	}, nil
}

// e6: Theorem 2 refutation.
func e6RefuteAtomic() (result, error) {
	chk, err := newChecker("forward", 2, 0)
	if err != nil {
		return result{}, err
	}
	report, err := chk.Refute(1)
	if err != nil {
		return result{}, err
	}
	defer report.Close()
	measured := "no violation"
	if report.Violated() {
		measured = fmt.Sprintf("%s violation, failed=%v", report.Primary().Kind, report.Primary().Failed)
	}
	return result{
		id: "E6", artifact: "Theorem 2 (atomic objects)",
		claim:    "0-resilient consensus object cannot give 1-resilient consensus",
		measured: measured,
		ok:       report.Violated() && report.Primary().Kind == boosting.KindTermination,
	}, nil
}

// e6b: ablation — benign silence policy.
func e6bBenignAblation() (result, error) {
	chk, err := newChecker("forward", 2, 0, boosting.WithSilencePolicy(boosting.Benign))
	if err != nil {
		return result{}, err
	}
	report, err := chk.Refute(1)
	if err != nil {
		return result{}, err
	}
	defer report.Close()
	return result{
		id: "E6b", artifact: "Ablation: silence policy",
		claim:    "impossibility is driven by the *permitted* silencing; a benign object (never silences) behaves wait-free and survives",
		measured: fmt.Sprintf("benign candidate violated: %v", report.Violated()),
		ok:       !report.Violated(),
	}, nil
}

// e7: Section 4 set-consensus boost.
func e7SetBoost() (result, error) {
	chk, err := newChecker("setboost", 2, 0)
	if err != nil {
		return result{}, err
	}
	inputs := map[int]string{0: "0", 1: "1", 2: "1", 3: "0"}
	patterns, failuresOK := 0, true
	for bits := 0; bits < 1<<4; bits++ {
		var J []int
		for idx := 0; idx < 4; idx++ {
			if bits&(1<<idx) != 0 {
				J = append(J, idx)
			}
		}
		if len(J) == 4 {
			continue
		}
		failures := make([]boosting.FailureEvent, len(J))
		for i, p := range J {
			failures[i] = boosting.FailureEvent{Round: 0, Proc: p}
		}
		res, err := chk.Run(boosting.RunConfig{Inputs: inputs, Failures: failures})
		if err != nil {
			return result{}, err
		}
		run := boosting.ConsensusRun{Inputs: inputs, Failed: J, Decisions: res.Decisions, Done: res.Done}
		if boosting.CheckKSetConsensus(run, 2) != nil {
			failuresOK = false
		}
		patterns++
	}
	return result{
		id: "E7", artifact: "Section 4 (k-set boost)",
		claim:    "wait-free 2n-process 2-set consensus from wait-free n-process consensus",
		measured: fmt.Sprintf("k-agreement/validity/termination hold under all %d failure patterns", patterns),
		ok:       failuresOK,
	}, nil
}

// e8: Figs. 5–7 totally ordered broadcast.
func e8TOB() (result, error) {
	chk, err := newChecker("tob", 3, 2)
	if err != nil {
		return result{}, err
	}
	inputs := map[int]string{0: "a", 1: "b", 2: "c"}
	res, err := chk.Run(boosting.RunConfig{Inputs: inputs})
	if err != nil {
		return result{}, err
	}
	orderErr := boosting.CheckTotalOrder(boosting.TOBDeliveries(res.Exec, "b0"))
	return result{
		id: "E8", artifact: "Figs. 5–7 (totally ordered broadcast)",
		claim:    "one invocation, responses at every endpoint, single total order",
		measured: fmt.Sprintf("3 broadcasts, total order check: %v", errString(orderErr)),
		ok:       orderErr == nil && res.Done,
	}, nil
}

// e9: Theorem 9 refutation (failure-oblivious services).
func e9RefuteOblivious() (result, error) {
	chk, err := newChecker("tob", 2, 0)
	if err != nil {
		return result{}, err
	}
	report, err := chk.Refute(1)
	if err != nil {
		return result{}, err
	}
	defer report.Close()
	measured := "no violation"
	if report.Violated() {
		measured = fmt.Sprintf("%s violation via silenced TOB", report.Primary().Kind)
	}
	return result{
		id: "E9", artifact: "Theorem 9 (failure-oblivious)",
		claim:    "0-resilient TOB cannot give 1-resilient consensus",
		measured: measured,
		ok:       report.Violated() && report.Primary().Kind == boosting.KindTermination,
	}, nil
}

// e10: Fig. 9 perfect failure detector.
func e10PerfectFD() (result, error) {
	chk, err := newChecker("suspectcollector", 3, 0)
	if err != nil {
		return result{}, err
	}
	res, err := chk.Run(boosting.RunConfig{
		Inputs:    map[int]string{0: "x", 1: "x", 2: "x"},
		Failures:  []boosting.FailureEvent{{Round: 0, Proc: 1}},
		MaxRounds: 50,
	})
	if err != nil {
		return result{}, err
	}
	accErr := boosting.CheckFDAccuracy(res.Exec)
	sys := chk.System()
	complete := true
	for _, i := range []int{0, 2} {
		got, perr := codec.ParseIntSet(sys.ProcState(res.Final, i).Get(boosting.VarSuspects))
		if perr != nil || !got.Equal(codec.NewIntSet(1)) {
			complete = false
		}
	}
	return result{
		id: "E10", artifact: "Fig. 9 (perfect FD)",
		claim:    "suspicions accurate and complete",
		measured: fmt.Sprintf("accuracy: %v; live collectors converge to failed set: %v", errString(accErr), complete),
		ok:       accErr == nil && complete,
	}, nil
}

// e11: Figs. 10–11 eventually perfect failure detector.
func e11EventuallyPerfectFD() (result, error) {
	u := servicetype.EventuallyPerfectFD([]int{0, 1, 2})
	failed := codec.NewIntSet(2)
	rm, _ := u.Delta2("fd0", servicetype.ModeImperfect, failed)
	wrongBefore, _ := servicetype.SuspectSet(rm.Responses(0)[0])
	_, mode := u.Delta2(servicetype.EvPerfectStabilizeTask, servicetype.ModeImperfect, failed)
	rm, _ = u.Delta2("fd0", mode, failed)
	rightAfter, _ := servicetype.SuspectSet(rm.Responses(0)[0])
	ok := !wrongBefore.Equal(failed) && rightAfter.Equal(failed) && mode == servicetype.ModePerfect
	return result{
		id: "E11", artifact: "Figs. 10–11 (◇P)",
		claim:    "arbitrary suspicions while imperfect; accurate after stabilization",
		measured: fmt.Sprintf("before g: %v; after g: %v (failed %v)", wrongBefore, rightAfter, failed),
		ok:       ok,
	}, nil
}

// e12: Section 6.3 FD boost.
func e12FDBoost() (result, error) {
	chk, err := newChecker("fdboost", 3, 0)
	if err != nil {
		return result{}, err
	}
	inputs := map[int]string{0: "1", 1: "0", 2: "1"}
	patterns, allOK := 0, true
	for bits := 0; bits < 1<<3; bits++ {
		var J []int
		for idx := 0; idx < 3; idx++ {
			if bits&(1<<idx) != 0 {
				J = append(J, idx)
			}
		}
		if len(J) == 3 {
			continue
		}
		failures := make([]boosting.FailureEvent, len(J))
		for i, p := range J {
			failures[i] = boosting.FailureEvent{Round: 0, Proc: p}
		}
		res, err := chk.Run(boosting.RunConfig{Inputs: inputs, Failures: failures})
		if err != nil {
			return result{}, err
		}
		run := boosting.ConsensusRun{Inputs: inputs, Failed: J, Decisions: res.Decisions, Done: res.Done}
		if boosting.CheckConsensus(run) != nil {
			allOK = false
		}
		patterns++
	}
	return result{
		id: "E12", artifact: "Section 6.3 (FD boost)",
		claim:    "consensus for any f from 1-resilient 2-process perfect FDs",
		measured: fmt.Sprintf("consensus holds under all %d failure patterns (0..n−1 failures)", patterns),
		ok:       allOK,
	}, nil
}

// e13: Theorem 10 refutation (general services, all-connected).
func e13RefuteGeneral() (result, error) {
	chk, err := newChecker("floodset-p", 3, 0, boosting.WithRounds(2), boosting.WithMaxRounds(500))
	if err != nil {
		return result{}, err
	}
	report, err := chk.Refute(1)
	if err != nil {
		return result{}, err
	}
	defer report.Close()
	measured := "no violation"
	if report.Violated() {
		measured = fmt.Sprintf("%s violation via silenced all-connected P", report.Primary().Kind)
	}
	return result{
		id: "E13", artifact: "Theorem 10 (general services)",
		claim:    "0-resilient all-connected perfect FD cannot give 1-resilient consensus",
		measured: measured,
		ok:       report.Violated() && report.Primary().Kind == boosting.KindTermination,
	}, nil
}

// e14: Theorem 11 / Appendix B.
func e14CanonicalConsensus() (result, error) {
	chk, err := newChecker("forward", 3, 1)
	if err != nil {
		return result{}, err
	}
	inputs := map[int]string{0: "1", 1: "0", 2: "0"}
	scenarios := [][]int{nil, {0}, {2}}
	allOK := true
	for _, J := range scenarios {
		failures := make([]boosting.FailureEvent, len(J))
		for i, p := range J {
			failures[i] = boosting.FailureEvent{Round: 0, Proc: p}
		}
		res, err := chk.Run(boosting.RunConfig{Inputs: inputs, Failures: failures})
		if err != nil {
			return result{}, err
		}
		run := boosting.ConsensusRun{Inputs: inputs, Failed: J, Decisions: res.Decisions, Done: res.Done}
		if boosting.CheckConsensus(run) != nil {
			allOK = false
		}
	}
	return result{
		id: "E14", artifact: "Theorem 11 / App. B",
		claim:    "canonical f-resilient consensus object satisfies agreement, validity, modified termination with ≤ f failures",
		measured: fmt.Sprintf("all three conditions hold in %d scenarios (≤ f=1 failures)", len(scenarios)),
		ok:       allOK,
	}, nil
}

// e15: k-set-consensus sequential type.
func e15KSetType() (result, error) {
	ty := seqtype.KSetConsensus(2, 4)
	if err := ty.Validate(); err != nil {
		return result{}, err
	}
	results := ty.Apply(seqtype.Init("3"), codec.Set([]string{"0"}))
	nondeterministic := len(results) > 1
	val := ty.Initials[0]
	maxW := 0
	for i := 0; i < 4; i++ {
		r, err := ty.ApplyOne(seqtype.Init(fmt.Sprint(i)), val)
		if err != nil {
			return result{}, err
		}
		val = r.NewVal
		members, _ := codec.ParseSet(val)
		if len(members) > maxW {
			maxW = len(members)
		}
	}
	return result{
		id: "E15", artifact: "Sec. 2.1.2 (k-set type)",
		claim:    "nondeterministic sequential type; remembers first k values",
		measured: fmt.Sprintf("δ multi-valued: %v; max |W| over 4 ops: %d (k = 2)", nondeterministic, maxW),
		ok:       nondeterministic && maxW == 2,
	}, nil
}

func errString(err error) string {
	if err == nil {
		return "pass"
	}
	return err.Error()
}

// e16: linearizability of canonical objects (implements relation, §2.1.4
// clause 2) under random adversarial schedules.
func e16Linearizability() (result, error) {
	chk, err := newChecker("forward", 3, 2)
	if err != nil {
		return result{}, err
	}
	inputs := map[int]string{0: "0", 1: "1", 2: "1"}
	types := map[string]*seqtype.Type{"k0": seqtype.BinaryConsensus()}
	checked := 0
	for seed := int64(1); seed <= 20; seed++ {
		res, err := chk.RunRandom(boosting.RunConfig{Inputs: inputs}, seed, 4000)
		if err != nil {
			return result{}, err
		}
		if err := linearize.CheckExecution(res.Exec, types); err != nil {
			return result{
				id: "E16", artifact: "§2.1.4 implements (linearizability)",
				claim:    "canonical object histories are linearizable",
				measured: err.Error(), ok: false,
			}, nil
		}
		checked++
	}
	return result{
		id: "E16", artifact: "§2.1.4 implements (linearizability)",
		claim:    "canonical object histories are linearizable",
		measured: fmt.Sprintf("%d random-schedule histories linearized (Wing–Gong)", checked),
		ok:       checked == 20,
	}, nil
}

// e17: the FLP corner — a naive register-only candidate loses safety, found
// by the exhaustive failure-free sweep.
func e17RegisterVote() (result, error) {
	chk, err := newChecker("registervote", 2, 0)
	if err != nil {
		return result{}, err
	}
	report, err := chk.Refute(1)
	if err != nil {
		return result{}, err
	}
	defer report.Close()
	measured := "no violation"
	if report.Violated() {
		measured = fmt.Sprintf("%s violation in the failure-free graph", report.Primary().Kind)
	}
	return result{
		id: "E17", artifact: "Theorem 2 ⊇ FLP (registers only)",
		claim:    "registers alone cannot give 1-resilient consensus; the naive vote even loses safety",
		measured: measured,
		ok:       report.Violated() && report.Primary().Kind == boosting.KindAgreement,
	}, nil
}

// e18: boundary cross-check — the Section 4 system solves 2-set consensus
// but NOT consensus.
func e18SetBoostIsNotConsensus() (result, error) {
	chk, err := newChecker("setboost", 2, 0)
	if err != nil {
		return result{}, err
	}
	report, err := chk.Refute(1)
	if err != nil {
		return result{}, err
	}
	defer report.Close()
	measured := "no violation"
	if report.Violated() {
		measured = fmt.Sprintf("%s violation across groups", report.Primary().Kind)
	}
	return result{
		id: "E18", artifact: "§4 boundary (2-set ≠ consensus)",
		claim:    "the boosted system is 2-set consensus only; as consensus it fails agreement",
		measured: measured,
		ok:       report.Violated() && report.Primary().Kind == boosting.KindAgreement,
	}, nil
}

// e19: the hook machinery applies verbatim to failure-oblivious services
// (Theorem 9's proof route).
func e19HookOnTOB() (result, error) {
	chk, err := newChecker("tob", 2, 0)
	if err != nil {
		return result{}, err
	}
	c, err := chk.ClassifyInits()
	if err != nil {
		return result{}, err
	}
	defer boosting.CloseGraph(c.Graph)
	hs, err := chk.FindHook(c.Graph, c.Roots[c.BivalentIndex])
	if err != nil || hs.Hook == nil {
		return result{
			id: "E19", artifact: "Theorem 9 proof route (hook on TOB)",
			claim: "Fig. 3 construction works on failure-oblivious substrates", measured: "no hook", ok: false,
		}, nil
	}
	s0, _ := c.Graph.State(hs.Hook.Alpha0)
	s1, _ := c.Graph.State(hs.Hook.Alpha1)
	who, similar := boosting.SomeSimilarity(chk.System(), s0, s1, boosting.SimilarityOptions{})
	return result{
		id: "E19", artifact: "Theorem 9 proof route (hook on TOB)",
		claim:    "Fig. 3 construction works on failure-oblivious substrates",
		measured: fmt.Sprintf("hook found (e=%v); ends similar at %s=%v", hs.Hook.E, who, similar),
		ok:       similar && who == "b0",
	}, nil
}

// e20: the k-set boundary, measured with the k-set refuter.
func e20KSetBoundary() (result, error) {
	chk, err := newChecker("setboost", 2, 0)
	if err != nil {
		return result{}, err
	}
	asTwoSet, err := chk.RefuteKSet(2, 3)
	if err != nil {
		return result{}, err
	}
	defer asTwoSet.Close()
	asConsensus, err := chk.RefuteKSet(1, 1)
	if err != nil {
		return result{}, err
	}
	defer asConsensus.Close()
	return result{
		id: "E20", artifact: "§4 boundary (k-set refuter)",
		claim:    "boosting possible at k = 2 (wait-free claim survives), impossible at k = 1",
		measured: fmt.Sprintf("k=2 claimed 3 failures: violated=%v; k=1 claimed 1: violated=%v", asTwoSet.Violated(), asConsensus.Violated()),
		ok:       !asTwoSet.Violated() && asConsensus.Violated(),
	}, nil
}

// e27: symmetry-reduced exploration — the quotient of G(C) modulo process
// renaming carries the same verdicts at a fraction of the states. (The id
// matches the E27 benchmark row; E22–E26 are engine benchmarks without
// paper-artifact rows.)
func e27SymmetryReduction() (result, error) {
	full, err := newChecker("forward", 4, 0)
	if err != nil {
		return result{}, err
	}
	unreduced, err := full.ClassifyInits()
	if err != nil {
		return result{}, err
	}
	defer boosting.CloseGraph(unreduced.Graph)
	reduced, err := newChecker("forward", 4, 0, boosting.WithSymmetry())
	if err != nil {
		return result{}, err
	}
	quotient, err := reduced.ClassifyInits()
	if err != nil {
		return result{}, err
	}
	defer boosting.CloseGraph(quotient.Graph)
	same := quotient.BivalentIndex == unreduced.BivalentIndex
	for i := range unreduced.Valences {
		same = same && quotient.Valences[i] == unreduced.Valences[i]
	}
	return result{
		id: "E27", artifact: "symmetry quotient of G(C)",
		claim: "process identities are interchangeable: the quotient modulo renaming preserves all valence verdicts",
		measured: fmt.Sprintf("forward n=4: %d → %d states (%.1f×), %d → %d edges; verdicts preserved=%v",
			unreduced.Graph.Size(), quotient.Graph.Size(),
			float64(unreduced.Graph.Size())/float64(quotient.Graph.Size()),
			unreduced.Graph.Edges(), quotient.Graph.Edges(), same),
		ok: same && quotient.Graph.Size() < unreduced.Graph.Size(),
	}, nil
}

// e28: disk-spilling state store — the spill file holds canonical
// fingerprints that decode back into representative states, the produced
// graph is identical to the dense store's, and the exhaustive forward n=5
// analysis (out of reach for the string-keyed seed engine) completes with
// states living on disk. (The id matches the E28 benchmark row.)
func e28SpillStore() (result, error) {
	// The reference is pinned to the dense backend so the parity check is
	// spill-vs-dense even when the shared -store flag selects spill.
	dense, err := newChecker("forward", 4, 0, boosting.WithStore(boosting.DenseStore))
	if err != nil {
		return result{}, err
	}
	want, err := dense.ClassifyInits()
	if err != nil {
		return result{}, err
	}
	defer boosting.CloseGraph(want.Graph)
	spill, err := newChecker("forward", 4, 0, boosting.WithSpillDir(spillDir))
	if err != nil {
		return result{}, err
	}
	got, err := spill.ClassifyInits()
	if err != nil {
		return result{}, err
	}
	defer boosting.CloseGraph(got.Graph)
	identical := got.Graph.Size() == want.Graph.Size() &&
		got.Graph.Edges() == want.Graph.Edges() &&
		got.BivalentIndex == want.BivalentIndex
	for id := 0; identical && id < want.Graph.Size(); id++ {
		sid := boosting.StateID(id)
		identical = got.Graph.Fingerprint(sid) == want.Graph.Fingerprint(sid) &&
			got.Graph.Valence(sid) == want.Graph.Valence(sid)
	}
	big, err := newChecker("forward", 5, 0, boosting.WithSpillDir(spillDir))
	if err != nil {
		return result{}, err
	}
	n5, err := big.ClassifyInits()
	if err != nil {
		return result{}, err
	}
	defer boosting.CloseGraph(n5.Graph)
	stats, _ := boosting.GraphSpillStats(n5.Graph)
	return result{
		id: "E28", artifact: "disk-spilling state store",
		claim: "fingerprints double as serialized states: exhaustive exploration no longer needs state-sized RAM",
		measured: fmt.Sprintf("forward n=4 spill ≡ dense per-vertex: %v; exhaustive n=5: %d states / %d edges, %.1f MB spilled, %d resident",
			identical, n5.Graph.Size(), n5.Graph.Edges(),
			float64(stats.SpillBytes)/1e6, stats.Resident),
		ok: identical && n5.BivalentIndex >= 0,
	}, nil
}

// e29: spilled adjacency — edges live as delta-varint blocks in the edge
// spill file, read back through the EdgesFrom iterator. The quotient
// forward n=6 build is checked per-vertex (fingerprints, valences, edges)
// against the dense backend; then the exhaustive frontiers the redesign
// opened: unreduced forward n=6, and registervote n=3 under symmetry with
// witness links dropped — the largest build, whose resident footprint is
// the dedup index alone. (The id matches the E29 benchmark row.)
func e29SpillAdjacency() (result, error) {
	dense, err := newChecker("forward", 6, 0, boosting.WithStore(boosting.DenseStore), boosting.WithSymmetry())
	if err != nil {
		return result{}, err
	}
	want, err := dense.ClassifyInits()
	if err != nil {
		return result{}, err
	}
	defer boosting.CloseGraph(want.Graph)
	spill, err := newChecker("forward", 6, 0, boosting.WithSpillDir(spillDir), boosting.WithSymmetry())
	if err != nil {
		return result{}, err
	}
	got, err := spill.ClassifyInits()
	if err != nil {
		return result{}, err
	}
	defer boosting.CloseGraph(got.Graph)
	identical := got.Graph.Size() == want.Graph.Size() &&
		got.Graph.Edges() == want.Graph.Edges() &&
		got.BivalentIndex == want.BivalentIndex
	for id := 0; identical && id < want.Graph.Size(); id++ {
		sid := boosting.StateID(id)
		identical = got.Graph.Fingerprint(sid) == want.Graph.Fingerprint(sid) &&
			got.Graph.Valence(sid) == want.Graph.Valence(sid)
		we := want.Graph.Succs(sid)
		j := 0
		for e := range got.Graph.EdgesFrom(sid) {
			identical = identical && j < len(we) && e == we[j]
			j++
		}
		identical = identical && j == len(we)
	}
	// The frontiers: exhaustive unreduced forward n=6, then the largest
	// build — registervote n=3 on the quotient, witness links dropped.
	full, err := newChecker("forward", 6, 0, boosting.WithSpillDir(spillDir),
		boosting.WithoutWitnesses(), boosting.WithMaxStates(100_000))
	if err != nil {
		return result{}, err
	}
	n6, err := full.ClassifyInits()
	if err != nil {
		return result{}, err
	}
	defer boosting.CloseGraph(n6.Graph)
	rv, err := newChecker("registervote", 3, 0, boosting.WithSpillDir(spillDir),
		boosting.WithSymmetry(), boosting.WithoutWitnesses(), boosting.WithMaxStates(1_200_000))
	if err != nil {
		return result{}, err
	}
	rv3, err := rv.ClassifyInits()
	if err != nil {
		return result{}, err
	}
	defer boosting.CloseGraph(rv3.Graph)
	stats, _ := boosting.GraphSpillStats(rv3.Graph)
	return result{
		id: "E29", artifact: "spilled adjacency (edge file)",
		claim: "edges stream from delta-varint blocks on disk: exhaustive exploration no longer needs edge-sized RAM either",
		measured: fmt.Sprintf("forward n=6 quotient spill ≡ dense per-vertex+edge: %v (%d states / %d edges); unreduced n=6: %d / %d; registervote n=3 quotient: %d / %d, %.1f MB edge file",
			identical, got.Graph.Size(), got.Graph.Edges(),
			n6.Graph.Size(), n6.Graph.Edges(),
			rv3.Graph.Size(), rv3.Graph.Edges(), float64(stats.EdgeBytes)/1e6),
		ok: identical && n6.BivalentIndex >= 0 && rv3.BivalentIndex >= 0,
	}, nil
}

// e31: a silence-policy variant has the same failure-free G(C). The
// exhaustive forward n=5 adversarial build is committed once behind its
// manifest; the benign-policy variant is then answered twice — by a full
// from-scratch build and by reopening the committed directory
// (ClassifyReopened) — and the two graphs must agree per ID: fingerprints,
// labelled edges, valences, roots. The policy only chooses between a real
// action and an enabled dummy, and a dummy needs a failed endpoint, which a
// failure-free execution never has. "Explored" is the number of BFS levels
// the reopen reported through WithProgress: none.
func e31PolicyVariantReopen() (result, error) {
	dir, err := os.MkdirTemp(spillDir, "e31-graph-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	base, err := newChecker("forward", 5, 1,
		boosting.WithWorkers(1),
		boosting.WithStore(boosting.SpillStore), boosting.WithGraphDir(dir))
	if err != nil {
		return result{}, err
	}
	committed, err := base.ClassifyInits()
	if err != nil {
		return result{}, err
	}
	defer committed.Close()
	fullStates, fullEdges := committed.Graph.Size(), committed.Graph.Edges()
	levels := 0
	variant, err := newChecker("forward", 5, 1,
		boosting.WithWorkers(1),
		boosting.WithSilencePolicy(boosting.Benign), boosting.WithSpillDir(spillDir),
		boosting.WithProgress(func(boosting.Progress) { levels++ }))
	if err != nil {
		return result{}, err
	}
	rebuilt, err := variant.ClassifyInits()
	if err != nil {
		return result{}, err
	}
	defer rebuilt.Close()
	rebuiltLevels := levels
	reopened, err := variant.ClassifyReopened(dir)
	if err != nil {
		return result{}, err
	}
	defer reopened.Close()
	explored := levels - rebuiltLevels
	a, b := reopened.Graph, rebuilt.Graph
	identical := a.Size() == b.Size() && a.Edges() == b.Edges() &&
		slices.Equal(reopened.Roots, rebuilt.Roots)
	for id := boosting.StateID(0); identical && int(id) < a.Size(); id++ {
		identical = a.Fingerprint(id) == b.Fingerprint(id) &&
			a.Valence(id) == b.Valence(id) &&
			slices.Equal(a.Succs(id), b.Succs(id))
	}
	return result{
		id: "E31", artifact: "§3.3 failure-free G(C) × Fig. 4 dummy actions (silence-policy variant)",
		claim: "a silence-policy variant has the same failure-free G(C): dummy actions need a failed endpoint, so a committed graph answers the variant by reopening",
		measured: fmt.Sprintf("committed forward n=5: %d states / %d edges; benign variant rebuilt %d states over %d levels vs reopened %d states, %d levels explored; per-ID identical: %v",
			fullStates, fullEdges, b.Size(), rebuiltLevels, a.Size(), explored, identical),
		ok: identical && explored == 0 && a.Size() == fullStates,
	}, nil
}

// e32: component interning — the property the transition memo rests on.
// Every non-fail action has at most two participants and every automaton is
// deterministic, so the states of G(C) are built from a small set of
// distinct component states: the build's System interns one cell per
// distinct state of each component, and the row counts them against the
// component slots the graph's states fill. (The timing side of E32 is the
// bench ledger table at the end of EXPERIMENTS.md.)
func e32ComponentInterning() (result, error) {
	chk, err := newChecker("forward", 5, 0)
	if err != nil {
		return result{}, err
	}
	c, err := chk.ClassifyInits()
	if err != nil {
		return result{}, err
	}
	defer boosting.CloseGraph(c.Graph)
	procs, svcs := chk.System().CellCounts()
	cells, maxProc := 0, 0
	for _, n := range procs {
		cells += n
		maxProc = max(maxProc, n)
	}
	var perSvc []string
	for i, k := range chk.System().ServiceIDs() {
		cells += svcs[i]
		perSvc = append(perSvc, fmt.Sprintf("%d of %s", svcs[i], k))
	}
	slots := c.Graph.Size() * (len(procs) + len(svcs))
	return result{
		id: "E32", artifact: "§2.2.3 two participants + §3.1 determinism (component interning)",
		claim: "a step changes at most two components and each component transition is a function of (state, input): distinct component states ≪ system states × components",
		measured: fmt.Sprintf("forward n=5: %d states fill %d component slots from %d interned cells (%.0f×): ≤ %d per process, %s",
			c.Graph.Size(), slots, cells, float64(slots)/float64(cells), maxProc, strings.Join(perSvc, ", ")),
		ok: cells*10 < slots,
	}, nil
}

// e21: Lemma 3 (no unvalent reachable states on a correct candidate) plus a
// fairness audit of the canonical scheduler.
func e21Lemma3AndFairness() (result, error) {
	chk, err := newChecker("forward", 2, 1)
	if err != nil {
		return result{}, err
	}
	c, err := chk.ClassifyInits()
	if err != nil {
		return result{}, err
	}
	defer boosting.CloseGraph(c.Graph)
	g := c.Graph
	unvalent, checked := 0, 0
	seen := make([]bool, g.Size())
	var queue []boosting.StateID
	for _, root := range c.Roots {
		if !seen[root] {
			seen[root] = true
			queue = append(queue, root)
		}
	}
	for head := 0; head < len(queue); head++ {
		id := queue[head]
		checked++
		if g.Valence(id) == boosting.Unvalent {
			unvalent++
		}
		for e := range g.EdgesFrom(id) {
			if !seen[e.To] {
				seen[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	res, err := chk.Run(boosting.RunConfig{Inputs: map[int]string{0: "0", 1: "1"}})
	if err != nil {
		return result{}, err
	}
	fairErr := boosting.AuditFairness(chk.System(), res.Exec, 0)
	return result{
		id: "E21", artifact: "Lemma 3 + fairness",
		claim:    "every reachable failure-free state is bi- or univalent; the canonical schedule is fair",
		measured: fmt.Sprintf("%d states checked, %d unvalent; fairness audit: %s", checked, unvalent, errString(fairErr)),
		ok:       unvalent == 0 && fairErr == nil,
	}, nil
}
