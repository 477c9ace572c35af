package explore

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"github.com/ioa-lab/boosting/internal/system"
)

// ViolationKind classifies a refutation certificate by which consensus
// property the witness execution violates (Section 2.2.4).
type ViolationKind int

// Violation kinds.
const (
	KindNone ViolationKind = iota
	KindAgreement
	KindValidity
	KindTermination
)

// String renders the kind.
func (k ViolationKind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindAgreement:
		return "agreement"
	case KindValidity:
		return "validity"
	case KindTermination:
		return "termination"
	default:
		return fmt.Sprintf("violation(%d)", int(k))
	}
}

// Certificate is a concrete counterexample: an input assignment, a failure
// pattern of at most the claimed tolerance, and a fair execution violating
// one of the consensus conditions.
type Certificate struct {
	Kind        ViolationKind
	Description string
	Inputs      map[int]string
	Failed      []int
	Decisions   map[int]string
	// Diverged marks termination certificates obtained from a provably
	// cycling fair schedule (not a mere step bound).
	Diverged bool
}

// String renders the certificate.
func (c Certificate) String() string {
	return fmt.Sprintf("%s violation [inputs: %s; failed: %v]: %s",
		c.Kind, fmtAssignment(c.Inputs), c.Failed, c.Description)
}

// Report is the outcome of Refute: the Lemma 4 initialization analysis, the
// Fig. 3 hook-search outcome, and every certificate found.
type Report struct {
	// Claimed is the number of failures the candidate claims to tolerate
	// (the paper's f+1 when boosting f-resilient services).
	Claimed int
	// Inits is the Lemma 4 classification (nil if the safety sweep already
	// refuted the candidate).
	Inits *InitClassification
	// HookSearch is the Fig. 3 outcome from the bivalent initialization
	// (nil if there was none).
	HookSearch *HookSearchResult
	// Certificates lists every violation found; empty means the candidate
	// survived refutation at the claimed resilience.
	Certificates []Certificate
}

// Violated reports whether any certificate was found.
func (r *Report) Violated() bool { return len(r.Certificates) > 0 }

// Close releases the graph behind the report's initialization analysis
// (nil-tolerant throughout: a safety-sweep refutation carries no graph).
// Spill-backed refutations hold a file descriptor until closed, so
// callers that churn through candidates should `defer report.Close()`.
func (r *Report) Close() error {
	if r == nil {
		return nil
	}
	return r.Inits.Close()
}

// Primary returns the first (most informative) certificate.
func (r *Report) Primary() *Certificate {
	if len(r.Certificates) == 0 {
		return nil
	}
	return &r.Certificates[0]
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "refutation report (claimed tolerance: %d failures)\n", r.Claimed)
	if r.Inits != nil {
		b.WriteString(r.Inits.String())
	}
	if r.HookSearch != nil {
		switch {
		case r.HookSearch.Hook != nil:
			fmt.Fprintf(&b, "%s\n", r.HookSearch.Hook)
		case r.HookSearch.Divergence != nil:
			fmt.Fprintf(&b, "divergence: fair bivalent cycle after %d steps\n", r.HookSearch.Divergence.Steps)
		}
	}
	if !r.Violated() {
		b.WriteString("no violation found at claimed resilience\n")
		return b.String()
	}
	for _, c := range r.Certificates {
		fmt.Fprintf(&b, "%s\n", c)
	}
	return b.String()
}

// RefuteOptions configures the refuter.
type RefuteOptions struct {
	Build BuildOptions
	// MaxRounds bounds fair runs in failure scenarios.
	MaxRounds int
	// SkipGraphAnalysis skips the failure-free graph phases (safety sweep,
	// Lemma 4, hook search) and goes straight to the failure scenarios.
	// Required for systems with failure detectors: detector compute steps
	// push suspicion responses unconditionally, so their failure-free
	// reachable graph is infinite.
	SkipGraphAnalysis bool
	// Canon, when set, is the candidate's symmetry canonicalizer (its
	// renamings must be automorphisms of the transition system, as for
	// BuildOptions.Symmetry). When it maps every input assignment's root to
	// the canonical root of the monotone assignment of the same weight, the
	// safety sweep explores α_0 … α_n alone and, if they violate nothing,
	// hands that graph to the classification. nil, or orbits that are not
	// the weights, sweep all 2^n roots.
	Canon Canonicalizer
}

// Refute analyses a candidate system claiming to solve consensus while
// tolerating `claimed` process failures. It is the executable counterpart of
// the impossibility theorems: for a candidate built from f-resilient
// services with claimed = f+1 (and f < n−1), the theorems guarantee some
// certificate exists; Refute finds one.
//
// The analysis follows the proofs' structure:
//
//  1. exhaustive safety sweep over all {0,1}^n input assignments in the
//     failure-free graph (agreement, validity), or over α_0 … α_n alone
//     when Canon shows every assignment to be a renaming of one of them;
//  2. the Lemma 4 initialization classification, then the Fig. 3 hook
//     construction from a bivalent initialization — divergence yields a
//     failure-free termination certificate;
//  3. failure scenarios: every failure set of size ≤ claimed, injected both
//     at the start and at the hook vertices, run under the adversarially
//     silencing fair schedule with cycle detection.
//
// A refutation commits no graph: Build.GraphDir is ignored.
func Refute(sys *system.System, claimed int, opt RefuteOptions) (_ *Report, err error) {
	report := &Report{Claimed: claimed}
	if err := ctxErr(opt.Build.Ctx); err != nil {
		return nil, err
	}
	// Every failed return after phase 2 releases the classification graph.
	defer func() {
		if err != nil {
			report.Close()
		}
	}()

	if opt.SkipGraphAnalysis {
		return refuteScenarios(sys, report, MonotoneAssignment(sys, len(sys.ProcessIDs())/2), nil, opt)
	}

	// Phase 1: exhaustive failure-free safety sweep. When every assignment
	// is a renaming of the monotone one of its weight, its graph is phase
	// 2's.
	opt.Build.GraphDir = ""
	certs, inits, err := safetySweep(sys, opt.Build, opt.Canon)
	if err != nil {
		return nil, err
	}
	if len(certs) > 0 {
		report.Certificates = certs
		return report, nil
	}

	// Phase 2: Lemma 4 + Fig. 3.
	if inits == nil {
		if inits, err = ClassifyInits(sys, opt.Build); err != nil {
			return nil, err
		}
	}
	report.Inits = inits
	var hookStates []system.State
	var hookInputs map[int]string
	if inits.BivalentIndex >= 0 {
		hookInputs = inits.Assignments[inits.BivalentIndex]
		hs, err := FindHook(opt.Build.Ctx, inits.Graph, inits.Roots[inits.BivalentIndex])
		if err != nil {
			return nil, err
		}
		report.HookSearch = &hs
		if hs.Divergence != nil {
			report.Certificates = append(report.Certificates, Certificate{
				Kind: KindTermination,
				Description: fmt.Sprintf(
					"fair failure-free execution cycles through bivalent states (cycle after %d steps); no process ever decides",
					hs.Divergence.Steps),
				Inputs:   hookInputs,
				Diverged: true,
			})
			return report, nil
		}
		if hs.Hook != nil {
			for _, id := range []StateID{hs.Hook.Alpha0, hs.Hook.Alpha1} {
				if st, ok := inits.Graph.State(id); ok {
					hookStates = append(hookStates, st)
				}
			}
		}
	} else {
		// The termination requirement for univalent-only candidates is
		// checked by the failure scenarios below; a missing bivalent
		// initialization with intact safety usually signals a trivial or
		// schedule-insensitive candidate.
		hookInputs = MonotoneAssignment(sys, len(sys.ProcessIDs())/2)
	}
	return refuteScenarios(sys, report, hookInputs, hookStates, opt)
}

// refuteScenarios is phase 3: failure scenarios from three initializations
// (the hook's and the two unanimous ones) and at the hook vertices, for
// every failure set of the claimed size.
func refuteScenarios(sys *system.System, report *Report, hookInputs map[int]string, hookStates []system.State, opt RefuteOptions) (*Report, error) {
	var scenarios []scenario
	for _, inputs := range []map[int]string{
		hookInputs,
		MonotoneAssignment(sys, 0),
		MonotoneAssignment(sys, len(sys.ProcessIDs())),
	} {
		// Failures are tried at several injection rounds (all at the start,
		// and staggered a few rounds in), since some candidates survive
		// early crashes but not late ones.
		scenarios = append(scenarios, scenario{inputs: inputs, bases: []int{0, 1, 2}, stagger: 1})
	}
	// Hook-anchored: fail J at the univalent ends of the hook.
	for i := range hookStates {
		scenarios = append(scenarios, scenario{inputs: hookInputs, from: &hookStates[i], bases: []int{0}})
	}
	return sweepFailureSets(sys, report, scenarios, classifyRun, opt)
}

// sweepFailureSets is the failure-set sweep both refuters end in: for every
// failure set J of the claimed size, the scenarios run with J injected. The
// scenarios of one failure set are independent fair runs, so they execute
// across the configured workers; certificates are collected in scenario
// order, the first error in that order is returned, and the sweep stops
// after the first violated failure set, so the report matches the serial
// refuter.
func sweepFailureSets(sys *system.System, report *Report, scenarios []scenario, classify classifier, opt RefuteOptions) (*Report, error) {
	workers := effectiveWorkers(opt.Build.Workers)
	certs := make([]*Certificate, len(scenarios))
	errs := make([]error, len(scenarios))
	for _, J := range failureSets(sys.ProcessIDs(), report.Claimed) {
		if err := ctxErr(opt.Build.Ctx); err != nil {
			return nil, err
		}
		parallelFor(workers, len(scenarios), func(i int) {
			certs[i], errs[i] = scenarios[i].run(sys, J, classify, opt.MaxRounds)
		})
		for i := range scenarios {
			if errs[i] != nil {
				return nil, errs[i]
			}
			if certs[i] != nil {
				report.Certificates = append(report.Certificates, *certs[i])
			}
		}
		if report.Violated() {
			// One certificate per failure set is plenty; stop early.
			break
		}
	}
	return report, nil
}

// scenario is one failure scenario of the sweep. Without from, the inputs
// are delivered to a fresh initial state and failure i of J is injected
// before round base + stagger·i; with from, J is failed in that already
// initialized state before the first round. Each base is one fair run, and
// the first run the classifier certifies ends the scenario.
type scenario struct {
	inputs  map[int]string
	from    *system.State
	bases   []int
	stagger int
}

// classifier turns a finished scenario run into a certificate if it
// violates the refuter's conditions at failure pattern J.
type classifier func(inputs map[int]string, J []int, res RunResult) *Certificate

// run runs the scenario at failure set J. No trace is kept: certificates
// read decisions and the run's outcome, never the execution.
func (sc scenario) run(sys *system.System, J []int, classify classifier, maxRounds int) (*Certificate, error) {
	for _, base := range sc.bases {
		r := &runner{sys: sys, inputs: sc.inputs}
		var failures []FailureEvent
		if sc.from != nil {
			r.st = *sc.from
			for _, p := range J {
				if err := r.fail(p); err != nil {
					return nil, err
				}
			}
		} else {
			r.st = sys.InitialState()
			if err := r.deliverInputs(); err != nil {
				return nil, err
			}
			for i, p := range J {
				failures = append(failures, FailureEvent{Round: base + sc.stagger*i, Proc: p})
			}
		}
		res, err := r.fairRounds(failures, maxRounds)
		if err != nil {
			return nil, err
		}
		if cert := classify(sc.inputs, J, res); cert != nil {
			return cert, nil
		}
	}
	return nil, nil
}

// safetySweep is phase 1: agreement and validity in every failure-free
// reachable state of every input assignment in {0,1}^n, one certificate per
// violating assignment, in assignment order.
//
// An assignment whose root canon maps to another's is a process renaming of
// it, and a renaming maps failure-free executions to failure-free
// executions while keeping the multiset of inputs and the set of decided
// values, so the two violate alike. When canon maps every root to the
// canonical root of the monotone assignment of its weight (forward, tob),
// the sweep builds from α_0 … α_n alone: that is the Lemma 4 graph, and
// when it violates nothing it is returned, open, as phase 2's
// classification.
//
// Otherwise — no canon, orbits that are not the weights, or a violation —
// the union of all 2^n graphs is built from all 2^n roots (forward n=4:
// 4 546 vertices where the Lemma 4 graph has 2 486) and every assignment
// is checked on it; Graph.rootSets recovers which assignments reach a
// vertex — validity depends on it, agreement does not. The union is closed
// on return; certificates carry step counts, not paths.
//
// The 2^n roots are exempt from the vertex budget once built, so the budget
// is checked against their count before one is enumerated: an n whose 2^n
// exceeds the budget, or does not fit an int, is refused at 0 explored.
func safetySweep(sys *system.System, opt BuildOptions, canon Canonicalizer) ([]Certificate, *InitClassification, error) {
	n := len(sys.ProcessIDs())
	if budget := opt.budget(); n >= 63 || 1<<n > budget {
		return nil, nil, &LimitError{Limit: budget, Explored: 0}
	}
	assignments := AllAssignments(sys)
	roots, err := applyAll(sys, assignments)
	if err != nil {
		return nil, nil, err
	}
	if weightOrbits(sys, roots, canon) {
		var monoInputs []map[int]string
		var monoRoots []system.State
		for w := 0; w <= n; w++ {
			monoInputs = append(monoInputs, assignments[1<<w-1])
			monoRoots = append(monoRoots, roots[1<<w-1])
		}
		g, err := BuildGraph(sys, monoRoots, opt)
		if err != nil {
			return nil, nil, err
		}
		violated, err := sweepViolations(opt.Ctx, sys, g, monoInputs)
		if err == nil && !slices.Contains(violated, true) {
			return nil, classify(monoInputs, g), nil
		}
		CloseGraphStore(g)
		if err != nil {
			return nil, nil, err
		}
	}
	g, err := BuildGraph(sys, roots, opt)
	if err != nil {
		return nil, nil, err
	}
	defer CloseGraphStore(g)
	violated, err := sweepViolations(opt.Ctx, sys, g, assignments)
	if err != nil {
		return nil, nil, err
	}
	var certs []Certificate
	for i, inputs := range assignments {
		if violated[i] {
			certs = append(certs, sweepCertificate(sys, g, g.Roots()[i], inputs))
		}
	}
	return certs, nil, nil
}

// weightOrbits reports whether canon maps the root of every assignment i
// (AllAssignments order) to the canonical root of α_w, assignment 2^w − 1,
// where w is the number of processes i gives input "1". False when canon
// is nil.
func weightOrbits(sys *system.System, roots []system.State, canon Canonicalizer) bool {
	if canon == nil {
		return false
	}
	fingerprint := func(st system.State) string {
		return string(sys.AppendFingerprint(nil, canon.Canonical(st)))
	}
	mono := map[int]string{}
	for i := 0; i < len(roots); i = 2*i + 1 {
		mono[i] = fingerprint(roots[i])
	}
	for i, root := range roots {
		if rep := 1<<bits.OnesCount(uint(i)) - 1; i != rep && fingerprint(root) != mono[rep] {
			return false
		}
	}
	return true
}

// sweepViolations reports, per root of g, whether some vertex it reaches
// violates agreement or validity for inputs[root] — the root's assignment.
func sweepViolations(ctx context.Context, sys *system.System, g *Graph, inputs []map[int]string) ([]bool, error) {
	reach, err := g.rootSets(ctx)
	if err != nil {
		return nil, err
	}
	valid := make([]map[string]bool, len(inputs))
	for i := range inputs {
		valid[i] = inputValues(inputs[i])
	}
	violated := make([]bool, len(inputs))
	for id := range StateID(g.Size()) {
		st, _ := g.State(id)
		values := decidedValues(sys.Decisions(st))
		if len(values) == 0 {
			continue
		}
		for i := range inputs {
			if !violated[i] && reach.has(id, i) {
				kind, _ := safetyViolation(values, valid[i])
				violated[i] = kind != KindNone
			}
		}
	}
	return violated, nil
}

// sweepCertificate derives a violating assignment's certificate from the
// union graph: a breadth-first walk from the assignment's root covers
// exactly its own failure-free graph and knows each vertex's distance. The
// violating vertex with the lexicographically smallest fingerprint wins —
// the historical selection order, which keeps reports byte-identical.
func sweepCertificate(sys *system.System, g *Graph, root StateID, inputs map[int]string) Certificate {
	var cert Certificate
	best := ""
	valid := inputValues(inputs)
	seen := make([]bool, g.Size())
	seen[root] = true
	for level, steps := []StateID{root}, 0; len(level) > 0; steps++ {
		var next []StateID
		for _, id := range level {
			st, _ := g.State(id)
			dec := sys.Decisions(st)
			if kind, value := safetyViolation(decidedValues(dec), valid); kind != KindNone {
				if fp := g.Fingerprint(id); best == "" || fp < best {
					best = fp
					desc := fmt.Sprintf("processes decided %v in one failure-free execution (reachable in %d steps)", dec, steps)
					if kind == KindValidity {
						desc = fmt.Sprintf("decision %q is not any process's input (reachable in %d steps)", value, steps)
					}
					cert = Certificate{Kind: kind, Description: desc, Inputs: inputs, Decisions: dec}
				}
			}
			for e := range g.EdgesFrom(id) {
				if !seen[e.To] {
					seen[e.To] = true
					next = append(next, e.To)
				}
			}
		}
		level = next
	}
	return cert
}

// decidedValues lists a state's decided values in sorted order.
func decidedValues(dec map[int]string) []string {
	values := make([]string, 0, len(dec))
	for _, v := range dec {
		values = append(values, v)
	}
	sort.Strings(values)
	return values
}

// inputValues is the set of values some process was given.
func inputValues(inputs map[int]string) map[string]bool {
	valid := make(map[string]bool, 2)
	for _, v := range inputs {
		valid[v] = true
	}
	return valid
}

// safetyViolation checks sorted decided values against validity (the
// smallest value that is nobody's input is returned) and then agreement;
// KindNone means both hold. valid is the assignment's inputValues.
func safetyViolation(values []string, valid map[string]bool) (ViolationKind, string) {
	for _, v := range values {
		if !valid[v] {
			return KindValidity, v
		}
	}
	if len(values) > 1 && values[0] != values[len(values)-1] {
		return KindAgreement, ""
	}
	return KindNone, ""
}

// classifyRun turns a finished run into a certificate if it violates a
// consensus condition at the given failure pattern.
func classifyRun(inputs map[int]string, J []int, res RunResult) *Certificate {
	dec := res.Decisions
	if kind, value := safetyViolation(decidedValues(dec), inputValues(inputs)); kind != KindNone {
		desc := fmt.Sprintf("processes decided %v under failure pattern %v", dec, J)
		if kind == KindValidity {
			desc = fmt.Sprintf("decision %q is not any process's input", value)
		}
		return &Certificate{Kind: kind, Description: desc, Inputs: inputs, Failed: J, Decisions: dec}
	}
	if res.Diverged && !res.Done {
		var undecided []int
		failed := map[int]bool{}
		for _, p := range J {
			failed[p] = true
		}
		for i := range inputs {
			if _, ok := dec[i]; !ok && !failed[i] {
				undecided = append(undecided, i)
			}
		}
		sort.Ints(undecided)
		return &Certificate{
			Kind: KindTermination,
			Description: fmt.Sprintf(
				"fair execution with %d ≤ claimed failures cycles forever; live inited processes %v never decide",
				len(J), undecided),
			Inputs: inputs, Failed: J, Decisions: dec, Diverged: true,
		}
	}
	return nil
}

// failureSets enumerates the subsets of ids of exactly the given size
// (and, when size exceeds len(ids), the full set).
func failureSets(ids []int, size int) [][]int {
	if size <= 0 {
		return [][]int{{}}
	}
	if size > len(ids) {
		size = len(ids)
	}
	var out [][]int
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) == size {
			out = append(out, append([]int{}, cur...))
			return
		}
		for i := start; i < len(ids); i++ {
			rec(i+1, append(cur, ids[i]))
		}
	}
	rec(0, nil)
	return out
}

// RefuteKSet is the k-set-consensus variant of Refute: it checks validity,
// modified termination and k-agreement (at most k distinct decisions)
// instead of full agreement. Section 4 shows the boosting boundary runs
// between k = 1 (impossible) and k = 2 (possible); this refuter measures it:
// the Section 4 construction survives RefuteKSet with k = 2 at full claimed
// resilience and is refuted with k = 1.
func RefuteKSet(sys *system.System, k, claimed int, opt RefuteOptions) (*Report, error) {
	var scenarios []scenario
	for _, inputs := range []map[int]string{
		MonotoneAssignment(sys, len(sys.ProcessIDs())/2),
		MonotoneAssignment(sys, 0),
		MonotoneAssignment(sys, len(sys.ProcessIDs())),
		alternatingAssignment(sys),
	} {
		// All of J fails before the first round.
		scenarios = append(scenarios, scenario{inputs: inputs, bases: []int{0}})
	}
	return sweepFailureSets(sys, &Report{Claimed: claimed}, scenarios, kSetClassifier(k), opt)
}

// alternatingAssignment gives processes alternating 0/1 inputs — the
// assignment that maximizes distinct decisions in grouped constructions.
func alternatingAssignment(sys *system.System) map[int]string {
	return assignment(sys, func(idx int) bool { return idx%2 == 1 })
}

// kSetClassifier classifies a run against the k-set-consensus conditions:
// validity, at most k distinct decisions, and modified termination.
func kSetClassifier(k int) classifier {
	return func(inputs map[int]string, J []int, res RunResult) *Certificate {
		valid, distinct := inputValues(inputs), map[string]bool{}
		for _, v := range res.Decisions {
			if !valid[v] {
				return &Certificate{
					Kind:        KindValidity,
					Description: fmt.Sprintf("decision %q is not any process's input", v),
					Inputs:      inputs, Failed: J, Decisions: res.Decisions,
				}
			}
			distinct[v] = true
		}
		if len(distinct) > k {
			return &Certificate{
				Kind:        KindAgreement,
				Description: fmt.Sprintf("%d distinct decisions exceed k = %d", len(distinct), k),
				Inputs:      inputs, Failed: J, Decisions: res.Decisions,
			}
		}
		if res.Diverged && !res.Done {
			return &Certificate{
				Kind:        KindTermination,
				Description: fmt.Sprintf("fair execution with %d ≤ claimed failures cycles; live inited processes never decide", len(J)),
				Inputs:      inputs, Failed: J, Decisions: res.Decisions, Diverged: true,
			}
		}
		return nil
	}
}
