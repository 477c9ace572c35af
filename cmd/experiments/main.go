// Command experiments reproduces every figure/lemma/theorem-level artifact
// of the paper (the rows E1–E21 of EXPERIMENTS.md, plus the
// E27, E29, E31 and E32 engine rows: symmetry quotient, spilled
// adjacency, a silence-policy variant answered from a reopened
// durable graph, component interning) and emits the results as the
// markdown report stored in EXPERIMENTS.md.
// -only regenerates a subset of rows. `go test ./cmd/experiments` runs every
// row except the heavy E29 and requires each to match EXPERIMENTS.md.
//
// Usage:
//
//	experiments -workers 8 > EXPERIMENTS.md
package main

import (
	"flag"
	"fmt"
	"io"
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

// row is one line of the report: the paper artifact it reproduces, the
// paper's claim, and the run that measures it on concrete systems.
type row struct {
	ID, Artifact, Claim string
	// Heavy rows take minutes; the tier-1 test leaves them out.
	Heavy bool
	// Run measures the row; ok reports whether the measurement agrees with
	// the claim.
	Run func(o rowOpts) (measured string, ok bool, err error)
}

// rowOpts is what every row builds under: the façade options resolved from
// the shared flag block, and the -spilldir value, which the E29 spill builds
// and E31's graph directory honour ("" = the OS temp directory).
type rowOpts struct {
	common   []boosting.Option
	spillDir string
}

// checker builds a registry candidate under the shared options plus opts.
func (o rowOpts) checker(name string, n, f int, opts ...boosting.Option) (*boosting.Checker, error) {
	return boosting.New(name, n, f, append(slices.Clone(o.common), opts...)...)
}

// classify builds a registry candidate and its Lemma 4 classification; the
// caller closes the classification.
func (o rowOpts) classify(name string, n, f int, opts ...boosting.Option) (*boosting.Checker, *boosting.InitClassification, error) {
	chk, err := o.checker(name, n, f, opts...)
	if err != nil {
		return nil, nil, err
	}
	c, err := chk.ClassifyInits()
	return chk, c, err
}

// rows is the report, in order. -only matches IDs case-insensitively.
var rows = []row{
	{ID: "E1", Artifact: "Fig. 1 canonical atomic object",
		Claim: "FIFO per endpoint; first value wins; >f failures permit silence",
		Run:   e1CanonicalAtomicObject},
	{ID: "E2", Artifact: "Lemma 1 (applicability persists)",
		Claim: "applicable tasks stay applicable until scheduled",
		Run:   classified("forward", 2, 0, e2Applicability)},
	{ID: "E3", Artifact: "Lemma 4 (bivalent initialization)",
		Claim: "α_0 0-valent, α_n 1-valent, some α_i bivalent",
		Run:   classified("forward", 2, 0, e3BivalentInit)},
	{ID: "E4", Artifact: "Fig. 2/3, Lemma 5 (hook)",
		Claim: "round-robin construction yields a hook",
		Run:   classified("forward", 2, 0, e4Hook)},
	{ID: "E5", Artifact: "Sec. 3.5 similarity / Lemma 7",
		Claim: "hook ends similar at shared component; failing J silences it on both sides identically",
		Run:   classified("forward", 2, 0, e5Similarity)},
	{ID: "E6", Artifact: "Theorem 2 (atomic objects)",
		Claim: "0-resilient consensus object cannot give 1-resilient consensus",
		Run: refuted("forward", 2, nil, violated(boosting.KindTermination, func(p *boosting.Certificate) string {
			return fmt.Sprintf(", failed=%v", p.Failed)
		}))},
	{ID: "E6b", Artifact: "Ablation: silence policy",
		Claim: "impossibility is driven by the *permitted* silencing; a benign object (never silences) behaves wait-free and survives",
		Run: refuted("forward", 2, []boosting.Option{boosting.WithSilencePolicy(boosting.Benign)},
			func(r *boosting.Report) (string, bool) {
				return fmt.Sprintf("benign candidate violated: %v", r.Violated()), !r.Violated()
			})},
	{ID: "E7", Artifact: "Section 4 (k-set boost)",
		Claim: "wait-free 2n-process 2-set consensus from wait-free n-process consensus",
		Run: sweep("setboost", 2, 0, map[int]string{0: "0", 1: "1", 2: "1", 3: "0"}, properSubsets(4),
			func(run boosting.ConsensusRun) error { return boosting.CheckKSetConsensus(run, 2) },
			"k-agreement/validity/termination hold under all %d failure patterns")},
	{ID: "E8", Artifact: "Figs. 5–7 (totally ordered broadcast)",
		Claim: "one invocation, responses at every endpoint, single total order",
		Run:   e8TOB},
	{ID: "E9", Artifact: "Theorem 9 (failure-oblivious)",
		Claim: "0-resilient TOB cannot give 1-resilient consensus",
		Run:   refuted("tob", 2, nil, violated(boosting.KindTermination, because(" via silenced TOB")))},
	{ID: "E10", Artifact: "Fig. 9 (perfect FD)",
		Claim: "suspicions accurate and complete",
		Run:   e10PerfectFD},
	{ID: "E11", Artifact: "Figs. 10–11 (◇P)",
		Claim: "arbitrary suspicions while imperfect; accurate after stabilization",
		Run:   e11EventuallyPerfectFD},
	{ID: "E12", Artifact: "Section 6.3 (FD boost)",
		Claim: "consensus for any f from 1-resilient 2-process perfect FDs",
		Run: sweep("fdboost", 3, 0, map[int]string{0: "1", 1: "0", 2: "1"}, properSubsets(3),
			boosting.CheckConsensus, "consensus holds under all %d failure patterns (0..n−1 failures)")},
	{ID: "E13", Artifact: "Theorem 10 (general services)",
		Claim: "0-resilient all-connected perfect FD cannot give 1-resilient consensus",
		Run: refuted("floodset-p", 3, []boosting.Option{boosting.WithRounds(2), boosting.WithMaxRounds(500)},
			violated(boosting.KindTermination, because(" via silenced all-connected P")))},
	{ID: "E14", Artifact: "Theorem 11 / App. B",
		Claim: "canonical f-resilient consensus object satisfies agreement, validity, modified termination with ≤ f failures",
		Run: sweep("forward", 3, 1, map[int]string{0: "1", 1: "0", 2: "0"}, [][]int{nil, {0}, {2}},
			boosting.CheckConsensus, "all three conditions hold in %d scenarios (≤ f=1 failures)")},
	{ID: "E15", Artifact: "Sec. 2.1.2 (k-set type)",
		Claim: "nondeterministic sequential type; remembers first k values",
		Run:   e15KSetType},
	{ID: "E16", Artifact: "§2.1.4 implements (linearizability)",
		Claim: "canonical object histories are linearizable",
		Run:   e16Linearizability},
	// The FLP corner: a naive register-only candidate loses safety, found by
	// the exhaustive failure-free sweep.
	{ID: "E17", Artifact: "Theorem 2 ⊇ FLP (registers only)",
		Claim: "registers alone cannot give 1-resilient consensus; the naive vote even loses safety",
		Run:   refuted("registervote", 2, nil, violated(boosting.KindAgreement, because(" in the failure-free graph")))},
	// Boundary cross-check: the Section 4 system solves 2-set consensus but
	// not consensus.
	{ID: "E18", Artifact: "§4 boundary (2-set ≠ consensus)",
		Claim: "the boosted system is 2-set consensus only; as consensus it fails agreement",
		Run:   refuted("setboost", 2, nil, violated(boosting.KindAgreement, because(" across groups")))},
	{ID: "E19", Artifact: "Theorem 9 proof route (hook on TOB)",
		Claim: "Fig. 3 construction works on failure-oblivious substrates",
		Run:   classified("tob", 2, 0, e19HookOnTOB)},
	{ID: "E20", Artifact: "§4 boundary (k-set refuter)",
		Claim: "boosting possible at k = 2 (wait-free claim survives), impossible at k = 1",
		Run:   e20KSetBoundary},
	{ID: "E21", Artifact: "Lemma 3 + fairness",
		Claim: "every reachable failure-free state is bi- or univalent; the canonical schedule is fair",
		Run:   classified("forward", 2, 1, e21Lemma3AndFairness)},
	{ID: "E27", Artifact: "symmetry quotient of G(C)",
		Claim: "process identities are interchangeable: the quotient modulo renaming preserves all valence verdicts",
		Run:   e27SymmetryReduction},
	{ID: "E29", Artifact: "spilled adjacency (edge file)",
		Claim: "edges stream from delta-varint blocks on disk: exhaustive exploration no longer needs edge-sized RAM either",
		Heavy: true,
		Run:   e29SpillAdjacency},
	{ID: "E31", Artifact: "§3.3 failure-free G(C) × Fig. 4 dummy actions (silence-policy variant)",
		Claim: "a silence-policy variant has the same failure-free G(C): dummy actions need a failed endpoint, so a committed graph answers the variant by reopening",
		Run:   e31PolicyVariantReopen},
	{ID: "E32", Artifact: "§2.2.3 two participants + §3.1 determinism (component interning)",
		Claim: "a step changes at most two components and each component transition is a function of (state, input): distinct component states ≪ system states × components",
		Run:   classified("forward", 5, 0, e32ComponentInterning)},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", cliflags.Describe(err))
		os.Exit(cliflags.ExitCode(err))
	}
}

// run parses args, runs the selected rows and writes the report to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	common := cliflags.Register(fs)
	only := fs.String("only", "", "comma-separated experiment ids to run (e.g. E29,E31); default: all")
	if err := cliflags.Parse(fs, args); err != nil {
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
	opts, err := common.Options()
	if err != nil {
		return err
	}
	o := rowOpts{common: opts, spillDir: common.SpillDir}
	// -only picks a subset of rows by id (the heavy engine row E29 builds
	// a million-state frontier, so regenerating one row without re-running
	// the whole index matters).
	selected := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.ToUpper(strings.TrimSpace(id)); id != "" {
			selected[id] = true
		}
	}
	for id := range selected {
		if !slices.ContainsFunc(rows, func(r row) bool { return strings.ToUpper(r.ID) == id }) {
			return fmt.Errorf("-only: unknown experiment id %q", id)
		}
	}
	var lines []string
	for _, r := range rows {
		if len(selected) > 0 && !selected[strings.ToUpper(r.ID)] {
			continue
		}
		measured, ok, err := r.Run(o)
		if err != nil {
			return err
		}
		mark := "✓"
		if !ok {
			mark = "✗"
		}
		lines = append(lines, fmt.Sprintf("| %s | %s | %s | %s | %s |", r.ID, r.Artifact, r.Claim, measured, mark))
	}
	printReport(out, lines)
	return nil
}

func printReport(w io.Writer, lines []string) {
	for _, l := range []string{
		"# Experiments: paper vs. measured",
		"",
		"Generated by `go run ./cmd/experiments`. Every row reproduces one artifact",
		"of the paper (figure, lemma or theorem) on concrete finite systems; the",
		"\"measured\" column is computed by the framework at generation time.",
		"`go test ./cmd/experiments` checks every row but the heavy E29 against this file.",
		"The \"Performance ledger\" section at the end of the committed file is not",
		"generated: it records `go run ./bench` comparisons and is kept by hand.",
		"",
		"| ID | Paper artifact | Paper claim | Measured | Agrees |",
		"|----|----------------|-------------|----------|--------|",
	} {
		fmt.Fprintln(w, l)
	}
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
	for _, l := range []string{
		"",
		"## Reading the table",
		"",
		"The paper proves *shape* statements, not performance numbers; the relevant",
		"reproduction criterion is **who wins and where the boundary falls**:",
		"",
		"- consensus over f-resilient services, claiming f+1 failures → refuted",
		"  (E6, E9, E13: Theorems 2, 9, 10);",
		"- 2-set consensus (E7) and sparsely-connected failure detectors (E12) →",
		"  boosting succeeds, exactly at the paper's stated escape hatches;",
		"- the proof artifacts themselves — bivalent initializations (E3), hooks",
		"  (E4), similarity (E5) — are exhibited mechanically on G(C).",
	} {
		fmt.Fprintln(w, l)
	}
}

// classified is the Run of a row measured on a candidate's Lemma 4
// classification: it builds the candidate (f = the service resilience),
// classifies its monotone initializations, hands both to measure and closes
// the graph after.
func classified(name string, n, f int, measure func(*boosting.Checker, *boosting.InitClassification) (string, bool, error)) func(rowOpts) (string, bool, error) {
	return func(o rowOpts) (string, bool, error) {
		chk, c, err := o.classify(name, n, f)
		if err != nil {
			return "", false, err
		}
		defer c.Close()
		return measure(chk, c)
	}
}

// refuted is the Run of a row that refutes a claim of one failure on a
// 0-resilient candidate; judge renders the report and gives the verdict.
func refuted(name string, n int, opts []boosting.Option, judge func(*boosting.Report) (string, bool)) func(rowOpts) (string, bool, error) {
	return func(o rowOpts) (string, bool, error) {
		chk, err := o.checker(name, n, 0, opts...)
		if err != nil {
			return "", false, err
		}
		report, err := chk.Refute(1)
		if err != nil {
			return "", false, err
		}
		defer report.Close()
		measured, ok := judge(report)
		return measured, ok, nil
	}
}

// violated judges a refutation that must end with a primary violation of
// kind want; detail renders what follows "<kind> violation" in the report.
func violated(want boosting.ViolationKind, detail func(*boosting.Certificate) string) func(*boosting.Report) (string, bool) {
	return func(r *boosting.Report) (string, bool) {
		if !r.Violated() {
			return "no violation", false
		}
		p := r.Primary()
		return fmt.Sprintf("%s violation%s", p.Kind, detail(p)), p.Kind == want
	}
}

// because is a fixed violation detail.
func because(s string) func(*boosting.Certificate) string {
	return func(*boosting.Certificate) string { return s }
}

// sweep is the Run of a row that runs a candidate from inputs once per
// failure set — every process of the set fails at round 0 — and agrees when
// check accepts every run; the measured text is format over the run count.
func sweep(name string, n, f int, inputs map[int]string, sets [][]int, check func(boosting.ConsensusRun) error, format string) func(rowOpts) (string, bool, error) {
	return func(o rowOpts) (string, bool, error) {
		chk, err := o.checker(name, n, f)
		if err != nil {
			return "", false, err
		}
		allOK := true
		for _, J := range sets {
			failures := make([]boosting.FailureEvent, len(J))
			for i, p := range J {
				failures[i] = boosting.FailureEvent{Round: 0, Proc: p}
			}
			res, err := chk.Run(boosting.RunConfig{Inputs: inputs, Failures: failures})
			if err != nil {
				return "", false, err
			}
			run := boosting.ConsensusRun{Inputs: inputs, Failed: J, Decisions: res.Decisions, Done: res.Done}
			allOK = allOK && check(run) == nil
		}
		return fmt.Sprintf(format, len(sets)), allOK, nil
	}
}

// properSubsets lists the subsets of the processes 0..n-1 except the full
// set, in bit order (the empty set first).
func properSubsets(n int) [][]int {
	var sets [][]int
	for bits := 0; bits < 1<<n-1; bits++ {
		var J []int
		for p := 0; p < n; p++ {
			if bits&(1<<p) != 0 {
				J = append(J, p)
			}
		}
		sets = append(sets, J)
	}
	return sets
}

// reachable lists the vertices of g reachable from roots, in BFS order.
func reachable(g *boosting.Graph, roots ...boosting.StateID) []boosting.StateID {
	seen := make([]bool, g.Size())
	var order []boosting.StateID
	visit := func(id boosting.StateID) {
		if !seen[id] {
			seen[id] = true
			order = append(order, id)
		}
	}
	for _, r := range roots {
		visit(r)
	}
	for head := 0; head < len(order); head++ {
		for e := range g.EdgesFrom(order[head]) {
			visit(e.To)
		}
	}
	return order
}

// e1: Fig. 1 canonical atomic object conformance.
func e1CanonicalAtomicObject(rowOpts) (string, bool, error) {
	eps := []int{0, 1, 2}
	obj, err := service.New(service.Config{
		Index: "k", Type: servicetype.FromSequential(seqtype.BinaryConsensus()),
		Endpoints: eps, Resilience: 1, Policy: service.Adversarial,
	})
	if err != nil {
		return "", false, err
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
	act, silenced := obj.Enabled(st, ioa.OutputTask("k", 0))
	silencedOK := silenced && act.Type == ioa.ActDummyOutput
	return fmt.Sprintf("FIFO+δ ✓; dummy enabled after 2 > f=1 failures: %v", silencedOK), fifoOK && silencedOK, nil
}

// e2: Lemma 1 applicability persistence: from every state reachable from a
// root, every successor edge not labelled with an applicable task must keep
// that task applicable.
func e2Applicability(chk *boosting.Checker, c *boosting.InitClassification) (string, bool, error) {
	sys, g := chk.System(), c.Graph
	violations, checked := 0, 0
	for _, root := range c.Roots {
		for _, id := range reachable(g, root) {
			st, _ := g.State(id)
			for _, task := range sys.Tasks() {
				if !sys.Applicable(st, task) {
					continue
				}
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
		}
	}
	return fmt.Sprintf("%d (state, task, other-edge) triples checked, %d violations", checked, violations),
		violations == 0 && checked > 0, nil
}

// e3: Lemma 4 bivalent initialization.
func e3BivalentInit(_ *boosting.Checker, c *boosting.InitClassification) (string, bool, error) {
	vals := make([]string, len(c.Valences))
	for i, v := range c.Valences {
		vals[i] = v.String()
	}
	ok := c.BivalentIndex >= 0 &&
		c.Valences[0] == boosting.ZeroValent &&
		c.Valences[len(c.Valences)-1] == boosting.OneValent
	return strings.Join(vals, ", "), ok, nil
}

// e4: Fig. 2/3, Lemma 5 hook.
func e4Hook(chk *boosting.Checker, c *boosting.InitClassification) (string, bool, error) {
	hs, err := chk.FindHook(c.Graph, c.Roots[c.BivalentIndex])
	if err != nil {
		return "", false, err
	}
	if hs.Hook == nil {
		return "no hook", false, nil
	}
	return fmt.Sprintf("hook at G(C) (%d vertices): e=%v, e'=%v", c.Graph.Size(), hs.Hook.E, hs.Hook.EPrime), true, nil
}

// e5: Section 3.5 similarity + Lemma 7 failure construction.
func e5Similarity(chk *boosting.Checker, c *boosting.InitClassification) (string, bool, error) {
	hs, err := chk.FindHook(c.Graph, c.Roots[c.BivalentIndex])
	if err != nil || hs.Hook == nil {
		return "", false, fmt.Errorf("hook: %w", err)
	}
	sys := chk.System()
	s0, _ := c.Graph.State(hs.Hook.Alpha0)
	s1, _ := c.Graph.State(hs.Hook.Alpha1)
	who, similar := boosting.SomeSimilarity(sys, s0, s1, boosting.SimilarityOptions{})
	bothDiverge := true
	for _, st := range []boosting.State{s0, s1} {
		cur, _, err := sys.Fail(st, 0)
		if err != nil {
			return "", false, err
		}
		run, err := chk.RunFrom(cur, c.Assignments[c.BivalentIndex])
		if err != nil {
			return "", false, err
		}
		bothDiverge = bothDiverge && run.Diverged && !run.Done
	}
	return fmt.Sprintf("ends similar at %s (found=%v); mirrored post-failure runs both diverge: %v", who, similar, bothDiverge),
		similar && who == "k0" && bothDiverge, nil
}

// e8: Figs. 5–7 totally ordered broadcast.
func e8TOB(o rowOpts) (string, bool, error) {
	chk, err := o.checker("tob", 3, 2)
	if err != nil {
		return "", false, err
	}
	res, err := chk.Run(boosting.RunConfig{Inputs: map[int]string{0: "a", 1: "b", 2: "c"}})
	if err != nil {
		return "", false, err
	}
	orderErr := boosting.CheckTotalOrder(boosting.TOBDeliveries(res.Exec, "b0"))
	return fmt.Sprintf("3 broadcasts, total order check: %v", errString(orderErr)), orderErr == nil && res.Done, nil
}

// e10: Fig. 9 perfect failure detector.
func e10PerfectFD(o rowOpts) (string, bool, error) {
	chk, err := o.checker("suspectcollector", 3, 0)
	if err != nil {
		return "", false, err
	}
	res, err := chk.Run(boosting.RunConfig{
		Inputs:    map[int]string{0: "x", 1: "x", 2: "x"},
		Failures:  []boosting.FailureEvent{{Round: 0, Proc: 1}},
		MaxRounds: 50,
	})
	if err != nil {
		return "", false, err
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
	return fmt.Sprintf("accuracy: %v; live collectors converge to failed set: %v", errString(accErr), complete),
		accErr == nil && complete, nil
}

// e11: Figs. 10–11 eventually perfect failure detector.
func e11EventuallyPerfectFD(rowOpts) (string, bool, error) {
	u := servicetype.EventuallyPerfectFD([]int{0, 1, 2})
	failed := codec.NewIntSet(2)
	rm, _ := u.Delta2("fd0", servicetype.ModeImperfect, failed)
	wrongBefore, _ := servicetype.SuspectSet(rm.Responses(0)[0])
	_, mode := u.Delta2(servicetype.EvPerfectStabilizeTask, servicetype.ModeImperfect, failed)
	rm, _ = u.Delta2("fd0", mode, failed)
	rightAfter, _ := servicetype.SuspectSet(rm.Responses(0)[0])
	ok := !wrongBefore.Equal(failed) && rightAfter.Equal(failed) && mode == servicetype.ModePerfect
	return fmt.Sprintf("before g: %v; after g: %v (failed %v)", wrongBefore, rightAfter, failed), ok, nil
}

// e15: k-set-consensus sequential type.
func e15KSetType(rowOpts) (string, bool, error) {
	ty := seqtype.KSetConsensus(2, 4)
	if err := ty.Validate(); err != nil {
		return "", false, err
	}
	nondeterministic := len(ty.Apply(seqtype.Init("3"), codec.Set([]string{"0"}))) > 1
	val := ty.Initials[0]
	maxW := 0
	for i := 0; i < 4; i++ {
		r, err := ty.ApplyOne(seqtype.Init(fmt.Sprint(i)), val)
		if err != nil {
			return "", false, err
		}
		val = r.NewVal
		members, _ := codec.ParseSet(val)
		maxW = max(maxW, len(members))
	}
	return fmt.Sprintf("δ multi-valued: %v; max |W| over 4 ops: %d (k = 2)", nondeterministic, maxW),
		nondeterministic && maxW == 2, nil
}

func errString(err error) string {
	if err == nil {
		return "pass"
	}
	return err.Error()
}

// e16: linearizability of canonical objects (implements relation, §2.1.4
// clause 2) under random adversarial schedules.
func e16Linearizability(o rowOpts) (string, bool, error) {
	chk, err := o.checker("forward", 3, 2)
	if err != nil {
		return "", false, err
	}
	inputs := map[int]string{0: "0", 1: "1", 2: "1"}
	types := map[string]*seqtype.Type{"k0": seqtype.BinaryConsensus()}
	checked := 0
	for seed := int64(1); seed <= 20; seed++ {
		res, err := chk.RunRandom(boosting.RunConfig{Inputs: inputs}, seed, 4000)
		if err != nil {
			return "", false, err
		}
		if err := linearize.CheckExecution(res.Exec, types); err != nil {
			return err.Error(), false, nil
		}
		checked++
	}
	return fmt.Sprintf("%d random-schedule histories linearized (Wing–Gong)", checked), checked == 20, nil
}

// e19: the hook machinery applies verbatim to failure-oblivious services
// (Theorem 9's proof route).
func e19HookOnTOB(chk *boosting.Checker, c *boosting.InitClassification) (string, bool, error) {
	hs, err := chk.FindHook(c.Graph, c.Roots[c.BivalentIndex])
	if err != nil || hs.Hook == nil {
		return "no hook", false, nil
	}
	s0, _ := c.Graph.State(hs.Hook.Alpha0)
	s1, _ := c.Graph.State(hs.Hook.Alpha1)
	who, similar := boosting.SomeSimilarity(chk.System(), s0, s1, boosting.SimilarityOptions{})
	return fmt.Sprintf("hook found (e=%v); ends similar at %s=%v", hs.Hook.E, who, similar), similar && who == "b0", nil
}

// e20: the k-set boundary, measured with the k-set refuter.
func e20KSetBoundary(o rowOpts) (string, bool, error) {
	chk, err := o.checker("setboost", 2, 0)
	if err != nil {
		return "", false, err
	}
	asTwoSet, err := chk.RefuteKSet(2, 3)
	if err != nil {
		return "", false, err
	}
	defer asTwoSet.Close()
	asConsensus, err := chk.RefuteKSet(1, 1)
	if err != nil {
		return "", false, err
	}
	defer asConsensus.Close()
	return fmt.Sprintf("k=2 claimed 3 failures: violated=%v; k=1 claimed 1: violated=%v", asTwoSet.Violated(), asConsensus.Violated()),
		!asTwoSet.Violated() && asConsensus.Violated(), nil
}

// e21: Lemma 3 (no unvalent reachable states on a correct candidate) plus a
// fairness audit of the canonical scheduler.
func e21Lemma3AndFairness(chk *boosting.Checker, c *boosting.InitClassification) (string, bool, error) {
	states := reachable(c.Graph, c.Roots...)
	unvalent := 0
	for _, id := range states {
		if c.Graph.Valence(id) == boosting.Unvalent {
			unvalent++
		}
	}
	res, err := chk.Run(boosting.RunConfig{Inputs: map[int]string{0: "0", 1: "1"}})
	if err != nil {
		return "", false, err
	}
	fairErr := boosting.AuditFairness(chk.System(), res.Exec, 0)
	return fmt.Sprintf("%d states checked, %d unvalent; fairness audit: %s", len(states), unvalent, errString(fairErr)),
		unvalent == 0 && fairErr == nil, nil
}

// e27: symmetry-reduced exploration — the quotient of G(C) modulo process
// renaming carries the same verdicts at a fraction of the states. (The id
// matches the E27 benchmark row; E22–E26 are engine benchmarks without
// paper-artifact rows.)
func e27SymmetryReduction(o rowOpts) (string, bool, error) {
	_, unreduced, err := o.classify("forward", 4, 0)
	if err != nil {
		return "", false, err
	}
	defer unreduced.Close()
	_, quotient, err := o.classify("forward", 4, 0, boosting.WithSymmetry())
	if err != nil {
		return "", false, err
	}
	defer quotient.Close()
	same := quotient.BivalentIndex == unreduced.BivalentIndex
	for i := range unreduced.Valences {
		same = same && quotient.Valences[i] == unreduced.Valences[i]
	}
	return fmt.Sprintf("forward n=4: %d → %d states (%.1f×), %d → %d edges; verdicts preserved=%v",
			unreduced.Graph.Size(), quotient.Graph.Size(),
			float64(unreduced.Graph.Size())/float64(quotient.Graph.Size()),
			unreduced.Graph.Edges(), quotient.Graph.Edges(), same),
		same && quotient.Graph.Size() < unreduced.Graph.Size(), nil
}

// e29: spilled adjacency — edges live as delta-varint blocks in the edge
// spill file, read back through the EdgesFrom iterator. The quotient
// forward n=6 build is checked per-vertex (fingerprints, valences, edges)
// against the dense backend; then the exhaustive frontiers the redesign
// opened: unreduced forward n=6, and registervote n=3 under symmetry — the
// largest build, whose resident footprint is the vertex store alone. (The id matches the E29 benchmark row.)
func e29SpillAdjacency(o rowOpts) (string, bool, error) {
	_, want, err := o.classify("forward", 6, 0, boosting.WithStore(boosting.DenseStore), boosting.WithSymmetry())
	if err != nil {
		return "", false, err
	}
	defer want.Close()
	_, got, err := o.classify("forward", 6, 0, boosting.WithSpillDir(o.spillDir), boosting.WithSymmetry())
	if err != nil {
		return "", false, err
	}
	defer got.Close()
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
	// build — registervote n=3 on the quotient.
	_, n6, err := o.classify("forward", 6, 0, boosting.WithSpillDir(o.spillDir),
		boosting.WithMaxStates(100_000))
	if err != nil {
		return "", false, err
	}
	defer n6.Close()
	_, rv3, err := o.classify("registervote", 3, 0, boosting.WithSpillDir(o.spillDir),
		boosting.WithSymmetry(), boosting.WithMaxStates(1_200_000))
	if err != nil {
		return "", false, err
	}
	defer rv3.Close()
	stats, _ := boosting.GraphSpillStats(rv3.Graph)
	return fmt.Sprintf("forward n=6 quotient spill ≡ dense per-vertex+edge: %v (%d states / %d edges); unreduced n=6: %d / %d; registervote n=3 quotient: %d / %d, %.1f MB edge file",
			identical, got.Graph.Size(), got.Graph.Edges(),
			n6.Graph.Size(), n6.Graph.Edges(),
			rv3.Graph.Size(), rv3.Graph.Edges(), float64(stats.EdgeBytes)/1e6),
		identical && n6.BivalentIndex >= 0 && rv3.BivalentIndex >= 0, nil
}

// e31: a silence-policy variant has the same failure-free G(C). The
// exhaustive forward n=5 adversarial build is committed once behind its
// manifest; the benign-policy variant then gets the graph twice — by a full
// from-scratch build and by reattaching the committed directory
// (OpenGraph) — and the two graphs must agree per ID: fingerprints,
// labelled edges, valences, roots. The policy only chooses between a real
// action and an enabled dummy, and a dummy needs a failed endpoint, which a
// failure-free execution never has. "Explored" is the number of BFS levels
// the variant's checker reported through WithProgress during the reattach:
// none.
func e31PolicyVariantReopen(o rowOpts) (string, bool, error) {
	dir, err := os.MkdirTemp(o.spillDir, "e31-graph-")
	if err != nil {
		return "", false, err
	}
	defer os.RemoveAll(dir)
	// The committed build's files all live in dir, which sits under the
	// -spilldir directory: WithSpillDir("") drops the inherited spill
	// directory, which a durable graph refuses beside its own.
	_, committed, err := o.classify("forward", 5, 1,
		boosting.WithWorkers(1), boosting.WithSpillDir(""),
		boosting.WithStore(boosting.SpillStore), boosting.WithGraphDir(dir))
	if err != nil {
		return "", false, err
	}
	defer committed.Close()
	fullStates, fullEdges := committed.Graph.Size(), committed.Graph.Edges()
	levels := 0
	variant, rebuilt, err := o.classify("forward", 5, 1,
		boosting.WithWorkers(1),
		boosting.WithSilencePolicy(boosting.Benign), boosting.WithSpillDir(o.spillDir),
		boosting.WithProgress(func(boosting.Progress) { levels++ }))
	if err != nil {
		return "", false, err
	}
	defer rebuilt.Close()
	rebuiltLevels := levels
	a, err := variant.OpenGraph(dir)
	if err != nil {
		return "", false, err
	}
	defer boosting.CloseGraph(a)
	explored := levels - rebuiltLevels
	b := rebuilt.Graph
	identical := a.Size() == b.Size() && a.Edges() == b.Edges() &&
		slices.Equal(a.Roots(), b.Roots())
	for id := boosting.StateID(0); identical && int(id) < a.Size(); id++ {
		identical = a.Fingerprint(id) == b.Fingerprint(id) &&
			a.Valence(id) == b.Valence(id) &&
			slices.Equal(a.Succs(id), b.Succs(id))
	}
	return fmt.Sprintf("committed forward n=5: %d states / %d edges; benign variant rebuilt %d states over %d levels vs reopened %d states, %d levels explored; per-ID identical: %v",
			fullStates, fullEdges, b.Size(), rebuiltLevels, a.Size(), explored, identical),
		identical && explored == 0 && a.Size() == fullStates, nil
}

// e32: component interning — the property the transition memo rests on.
// Every non-fail action has at most two participants and every automaton is
// deterministic, so the states of G(C) are built from a small set of
// distinct component states: the build's System interns one cell per
// distinct state of each component, and the row counts them against the
// component slots the graph's states fill. (The timing side of E32 is the
// bench ledger table at the end of EXPERIMENTS.md.)
func e32ComponentInterning(chk *boosting.Checker, c *boosting.InitClassification) (string, bool, error) {
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
	return fmt.Sprintf("forward n=5: %d states fill %d component slots from %d interned cells (%.0f×): ≤ %d per process, %s",
			c.Graph.Size(), slots, cells, float64(slots)/float64(cells), maxProc, strings.Join(perSvc, ", ")),
		cells*10 < slots, nil
}
