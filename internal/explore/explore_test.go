package explore_test

import (
	"context"
	"errors"
	"testing"

	"github.com/ioa-lab/boosting/internal/explore"
	"github.com/ioa-lab/boosting/internal/protocols"
	"github.com/ioa-lab/boosting/internal/service"
	"github.com/ioa-lab/boosting/internal/system"
)

// mustForward builds the forward candidate: n processes, one f-resilient
// consensus object, one register.
func mustForward(t testing.TB, n, f int, policy service.SilencePolicy) *system.System {
	t.Helper()
	sys, err := protocols.BuildForward(n, f, policy)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestRoundRobinWaitFreeObjectDecides(t *testing.T) {
	sys := mustForward(t, 2, 1, service.Adversarial)
	res, err := explore.RoundRobin(sys, explore.RunConfig{Inputs: map[int]string{0: "0", 1: "1"}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatalf("run did not terminate: %+v", res)
	}
	if len(res.Decisions) != 2 || res.Decisions[0] != res.Decisions[1] {
		t.Errorf("decisions: %v", res.Decisions)
	}
}

func TestRoundRobinSurvivorDecidesWithWaitFreeObject(t *testing.T) {
	sys := mustForward(t, 2, 1, service.Adversarial)
	res, err := explore.RoundRobin(sys, explore.RunConfig{
		Inputs:   map[int]string{0: "0", 1: "1"},
		Failures: []explore.FailureEvent{{Round: 0, Proc: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatalf("survivor did not decide: %+v", res)
	}
	if v, ok := res.Decisions[0]; !ok || (v != "0" && v != "1") {
		t.Errorf("survivor decision: %v", res.Decisions)
	}
}

func TestRoundRobinZeroResilientObjectDiverges(t *testing.T) {
	// f = 0 object + 1 failure: the adversarially silenced object never
	// answers, the survivor polls forever — a provable cycle.
	sys := mustForward(t, 2, 0, service.Adversarial)
	res, err := explore.RoundRobin(sys, explore.RunConfig{
		Inputs:   map[int]string{0: "0", 1: "1"},
		Failures: []explore.FailureEvent{{Round: 0, Proc: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done {
		t.Fatalf("run terminated despite silenced object: %v", res.Decisions)
	}
	if !res.Diverged {
		t.Fatal("divergence not detected")
	}
	if _, decided := res.Decisions[0]; decided {
		t.Errorf("survivor decided without the object: %v", res.Decisions)
	}
}

func TestClassifyInitsLemma4(t *testing.T) {
	sys := mustForward(t, 2, 0, service.Adversarial)
	c, err := explore.ClassifyInits(sys, explore.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Validity forces the all-0 initialization 0-valent and the all-1
	// initialization 1-valent (paper Lemma 4's endpoints).
	if got := c.Valences[0]; got != explore.ZeroValent {
		t.Errorf("α_0: %v", got)
	}
	if got := c.Valences[len(c.Valences)-1]; got != explore.OneValent {
		t.Errorf("α_n: %v", got)
	}
	if c.BivalentIndex < 0 {
		t.Fatal("no bivalent initialization found (Lemma 4 exhibits one)")
	}
	if got := c.Valences[c.BivalentIndex]; got != explore.Bivalent {
		t.Errorf("bivalent index has valence %v", got)
	}
}

func TestFindHookOnForwardCandidate(t *testing.T) {
	// The mixed-input initialization of the forward candidate is bivalent
	// (the object's perform order decides the winner), and the Fig. 3
	// construction terminates with a hook at the object.
	sys := mustForward(t, 2, 0, service.Adversarial)
	c, err := explore.ClassifyInits(sys, explore.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c.BivalentIndex < 0 {
		t.Fatal("no bivalent init")
	}
	res, err := explore.FindHook(context.Background(), c.Graph, c.Roots[c.BivalentIndex])
	if err != nil {
		t.Fatal(err)
	}
	if res.Hook == nil {
		t.Fatalf("expected a hook, got %+v", res)
	}
	h := res.Hook
	g := c.Graph
	// Check the hook's defining valences.
	v0, v1 := g.Valence(h.Alpha0), g.Valence(h.Alpha1)
	if v0 == v1 || v0 == explore.Bivalent || v1 == explore.Bivalent {
		t.Errorf("hook ends: %v vs %v", v0, v1)
	}
	if g.Valence(h.Alpha) != explore.Bivalent {
		t.Errorf("hook base valence: %v", g.Valence(h.Alpha))
	}
	if h.E == h.EPrime {
		t.Error("hook tasks must differ (Claim 1)")
	}
	// Structural identities: α0 = e(α), α' = e'(α), α1 = e(α').
	if e0, ok := g.Succ(h.Alpha, h.E); !ok || e0.To != h.Alpha0 {
		t.Error("α0 ≠ e(α)")
	}
	if ep, ok := g.Succ(h.Alpha, h.EPrime); !ok || ep.To != h.AlphaPrime {
		t.Error("α' ≠ e'(α)")
	}
	if e1, ok := g.Succ(h.AlphaPrime, h.E); !ok || e1.To != h.Alpha1 {
		t.Error("α1 ≠ e(α')")
	}
}

func TestHookEndsSimilarOnlyBecauseCandidateIsBroken(t *testing.T) {
	// For the broken forward candidate the hook ends ARE k-similar at the
	// shared object: this is precisely the configuration Lemma 8 rules out
	// for correct systems, and Lemma 7's failure construction turns it into
	// the non-termination certificate.
	sys := mustForward(t, 2, 0, service.Adversarial)
	c, err := explore.ClassifyInits(sys, explore.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := explore.FindHook(context.Background(), c.Graph, c.Roots[c.BivalentIndex])
	if err != nil || res.Hook == nil {
		t.Fatalf("hook: %+v err %v", res, err)
	}
	s0, ok0 := c.Graph.State(res.Hook.Alpha0)
	s1, ok1 := c.Graph.State(res.Hook.Alpha1)
	if !ok0 || !ok1 {
		t.Fatal("hook states missing from graph")
	}
	who, similar := explore.SomeSimilarity(sys, s0, s1)
	if !similar {
		t.Fatal("hook ends of the broken candidate should be similar in some way")
	}
	if who != "k0" {
		t.Errorf("similarity at %s, want the shared consensus object k0", who)
	}
}

func TestLemma7FailureConstructionOnHookEnds(t *testing.T) {
	// The mechanical content of Lemma 7: from two k-similar states, failing
	// a set J of f+1 processes chosen to silence S_k yields executions that
	// the remaining components cannot tell apart — so the survivors behave
	// identically on both sides. On the broken forward candidate (f = 0
	// object claiming 1-resilient consensus) the hook ends are k0-similar
	// with *different* valences, and the mirrored runs expose the
	// contradiction: both sides diverge identically, so the claimed
	// termination under 1 failure is violated.
	//
	// (The lemma's hypotheses — a system actually solving (f+1)-resilient
	// consensus — are unsatisfiable by Theorem 2, so the lemma can only be
	// exercised this way: as the engine that turns a hook into a concrete
	// counterexample.)
	sys := mustForward(t, 2, 0, service.Adversarial)
	c, err := explore.ClassifyInits(sys, explore.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := explore.FindHook(context.Background(), c.Graph, c.Roots[c.BivalentIndex])
	if err != nil || res.Hook == nil {
		t.Fatalf("hook: %+v err %v", res, err)
	}
	s0, _ := c.Graph.State(res.Hook.Alpha0)
	s1, _ := c.Graph.State(res.Hook.Alpha1)
	if !explore.KSimilar(sys, s0, s1, "k0") {
		t.Fatal("hook ends not k0-similar")
	}
	if c.Graph.Valence(res.Hook.Alpha0) == c.Graph.Valence(res.Hook.Alpha1) {
		t.Fatal("hook ends must have opposite valences")
	}
	// Fail J = {0} (f+1 = 1 failure silences the 0-resilient object) at
	// both ends and run the fair schedule.
	inputs := c.Assignments[c.BivalentIndex]
	outcomes := make([]map[int]string, 2)
	for idx, st := range []system.State{s0, s1} {
		cur, _, failErr := sys.Fail(st, 0)
		if failErr != nil {
			t.Fatal(failErr)
		}
		run, runErr := explore.RoundRobinFrom(sys, cur, inputs, 0)
		if runErr != nil {
			t.Fatal(runErr)
		}
		if run.Done {
			t.Fatalf("side %d terminated despite silenced object: %v", idx, run.Decisions)
		}
		if !run.Diverged {
			t.Fatalf("side %d did not provably diverge", idx)
		}
		outcomes[idx] = run.Decisions
	}
	// The survivors' observable outcomes match on both sides, as the
	// similarity argument predicts (here: no survivor ever decides).
	if len(outcomes[0]) != len(outcomes[1]) {
		t.Errorf("survivor outcomes differ: %v vs %v", outcomes[0], outcomes[1])
	}
}

func TestTasksCommuteWithDisjointParticipants(t *testing.T) {
	// Claim 2 of Lemma 8: tasks with disjoint participants commute. Sample
	// over the reachable graph of the forward candidate.
	sys := mustForward(t, 2, 1, service.Adversarial)
	c, err := explore.ClassifyInits(sys, explore.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g := c.Graph
	tasks := sys.Tasks()
	checked := 0
	// Scan the whole reachable graph from all roots for applicable disjoint
	// pairs.
	seen := make([]bool, g.Size())
	queue := append([]explore.StateID{}, c.Roots...)
	for head := 0; head < len(queue); head++ {
		id := queue[head]
		if seen[id] {
			continue
		}
		seen[id] = true
		st, ok := g.State(id)
		if !ok {
			continue
		}
		for i := 0; i < len(tasks); i++ {
			for j := i + 1; j < len(tasks); j++ {
				if !sys.Applicable(st, tasks[i]) || !sys.Applicable(st, tasks[j]) {
					continue
				}
				if explore.ParticipantsDisjoint(sys, st, tasks[i], tasks[j]) {
					checked++
					if !explore.TasksCommute(sys, st, tasks[i], tasks[j]) {
						t.Fatalf("disjoint tasks %v, %v do not commute at %q", tasks[i], tasks[j], g.Fingerprint(id))
					}
				}
			}
		}
		for _, e := range g.Succs(id) {
			queue = append(queue, e.To)
		}
	}
	if checked == 0 {
		t.Error("no disjoint applicable task pairs found anywhere in the graph")
	}
}

func TestRefuteForwardCandidateTheorem2(t *testing.T) {
	// Theorem 2 instance: 0-resilient consensus object cannot implement
	// 1-resilient consensus (n = 2, f = 0 < n−1 = 1).
	sys := mustForward(t, 2, 0, service.Adversarial)
	report, err := explore.Refute(sys, 1, explore.RefuteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Violated() {
		t.Fatalf("expected refutation:\n%s", report)
	}
	if report.Primary().Kind != explore.KindTermination {
		t.Errorf("primary violation: %v (want termination)", report.Primary().Kind)
	}
	if !report.Primary().Diverged {
		t.Error("termination certificate should come from a provable cycle")
	}
	if report.HookSearch == nil || report.HookSearch.Hook == nil {
		t.Error("expected the hook to be exhibited on the way")
	}
}

func TestRefuteAcceptsTrueResilience(t *testing.T) {
	// The same protocol with a wait-free object genuinely solves
	// 1-resilient consensus for 2 processes (f = |J|−1 = 1 is not < n−1,
	// so Theorem 2 does not apply): no violation is found.
	sys := mustForward(t, 2, 1, service.Adversarial)
	report, err := explore.Refute(sys, 1, explore.RefuteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Violated() {
		t.Fatalf("false refutation:\n%s", report)
	}
}

func TestRefuteTOBCandidateTheorem9(t *testing.T) {
	// Theorem 9 instance: a 0-resilient failure-oblivious service (totally
	// ordered broadcast) cannot implement 1-resilient consensus.
	sys, err := protocols.BuildTOBConsensus(2, 0, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	report, err := explore.Refute(sys, 1, explore.RefuteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Violated() {
		t.Fatalf("expected refutation:\n%s", report)
	}
	if report.Primary().Kind != explore.KindTermination {
		t.Errorf("primary violation: %v", report.Primary().Kind)
	}
}

func TestRefuteThreeProcesses(t *testing.T) {
	// Theorem 2 at n = 3, f = 1 < n−1 = 2: a 1-resilient object cannot
	// give 2-resilient consensus.
	sys := mustForward(t, 3, 1, service.Adversarial)
	report, err := explore.Refute(sys, 2, explore.RefuteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Violated() {
		t.Fatalf("expected refutation:\n%s", report)
	}
}

// TestBuildGraphStateLimit pins the budget's boundary on forward n=2, f=0
// (34 vertices): a budget below the graph's size stops the build with
// *LimitError{Limit, Explored} at that budget, the size itself succeeds.
func TestBuildGraphStateLimit(t *testing.T) {
	sys := mustForward(t, 2, 0, service.Adversarial)
	root, _, err := initAll(sys)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		budget int
		want   *explore.LimitError // nil: the build completes
	}{
		{1, &explore.LimitError{Limit: 1, Explored: 1}},
		{3, &explore.LimitError{Limit: 3, Explored: 3}},
		{33, &explore.LimitError{Limit: 33, Explored: 33}},
		{34, nil},
	} {
		g, err := explore.BuildGraph(sys, []system.State{root}, explore.BuildOptions{MaxStates: tc.budget})
		var limit *explore.LimitError
		switch {
		case tc.want == nil && err != nil:
			t.Errorf("budget %d: %v, want the 34-vertex graph", tc.budget, err)
		case tc.want == nil && g.Size() != 34:
			t.Errorf("budget %d: %d vertices, want 34", tc.budget, g.Size())
		case tc.want != nil && (!errors.Is(err, explore.ErrStateExplosion) || !errors.As(err, &limit) || *limit != *tc.want):
			t.Errorf("budget %d: %v, want %+v", tc.budget, err, *tc.want)
		}
	}
}

func TestFindHookRequiresBivalentRoot(t *testing.T) {
	sys := mustForward(t, 2, 0, service.Adversarial)
	c, err := explore.ClassifyInits(sys, explore.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Root 0 is 0-valent.
	if _, err := explore.FindHook(context.Background(), c.Graph, c.Roots[0]); !errors.Is(err, explore.ErrNotBivalent) {
		t.Errorf("want ErrNotBivalent, got %v", err)
	}
}

func TestRandomScheduleSafety(t *testing.T) {
	sys := mustForward(t, 3, 2, service.Adversarial)
	for seed := int64(0); seed < 20; seed++ {
		res, err := explore.Random(sys, explore.RunConfig{
			Inputs: map[int]string{0: "1", 1: "0", 2: "1"},
		}, seed, 2000)
		if err != nil {
			t.Fatal(err)
		}
		var vals []string
		for _, v := range res.Decisions {
			vals = append(vals, v)
		}
		for _, v := range vals {
			if v != "0" && v != "1" {
				t.Fatalf("seed %d: invalid decision %q", seed, v)
			}
		}
		for i := 1; i < len(vals); i++ {
			if vals[i] != vals[0] {
				t.Fatalf("seed %d: agreement violated: %v", seed, res.Decisions)
			}
		}
	}
}

// initAll delivers mixed inputs to all processes of sys.
func initAll(sys *system.System) (system.State, map[int]string, error) {
	inputs := map[int]string{}
	for idx, id := range sys.ProcessIDs() {
		if idx%2 == 0 {
			inputs[id] = "0"
		} else {
			inputs[id] = "1"
		}
	}
	st := sys.InitialState()
	for _, id := range sys.ProcessIDs() {
		next, _, err := sys.Init(st, id, inputs[id])
		if err != nil {
			return system.State{}, nil, err
		}
		st = next
	}
	return st, inputs, nil
}

func TestRefuteFloodSetWithWeakPTheorem10(t *testing.T) {
	// Theorem 10 instance: an f-resilient general service (perfect failure
	// detector) connected to ALL processes cannot give (f+1)-resilient
	// consensus. FloodSet with a 0-resilient all-connected P, claiming
	// tolerance 1 (rounds = 2): one failure silences P, the survivor polls
	// forever. Graph analysis is skipped (detector pushes make the
	// failure-free graph infinite); the scenario phase finds the
	// certificate.
	sys, err := protocols.BuildFloodSetWithP(3, 0, 2, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	report, err := explore.Refute(sys, 1, explore.RefuteOptions{SkipGraphAnalysis: true, MaxRounds: 500})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Violated() {
		t.Fatalf("expected Theorem 10 refutation:\n%s", report)
	}
	if report.Primary().Kind != explore.KindTermination {
		t.Errorf("primary violation: %v", report.Primary().Kind)
	}
}

func TestRefuteAcceptsFDBoost(t *testing.T) {
	// The Section 6.3 boost (pairwise 1-resilient detectors, arbitrary
	// connection pattern) escapes Theorem 10: claiming n−1 = 2 tolerated
	// failures survives refutation.
	sys, err := protocols.BuildFDBoost(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	report, err := explore.Refute(sys, 2, explore.RefuteOptions{SkipGraphAnalysis: true, MaxRounds: 500})
	if err != nil {
		t.Fatal(err)
	}
	if report.Violated() {
		t.Fatalf("false refutation of the FD boost:\n%s", report)
	}
}

func TestRefuteRegisterVoteSafety(t *testing.T) {
	// The naive register-only candidate loses *safety*: the exhaustive
	// failure-free sweep finds an agreement violation (a reachable state in
	// which two processes decided differently).
	sys, err := protocols.BuildRegisterVote(2)
	if err != nil {
		t.Fatal(err)
	}
	report, err := explore.Refute(sys, 1, explore.RefuteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Violated() {
		t.Fatalf("expected refutation:\n%s", report)
	}
	if report.Primary().Kind != explore.KindAgreement {
		t.Errorf("primary violation: %v (want agreement, from the safety sweep)", report.Primary().Kind)
	}
}

func TestSetBoostIsNotConsensus(t *testing.T) {
	// Cross-check of the Section 4 boundary: the set-boost system solves
	// 2-set consensus but NOT consensus — the two groups can decide
	// different values, and the refuter's failure-free sweep finds the
	// disagreement.
	sys, err := protocols.BuildSetBoost(2)
	if err != nil {
		t.Fatal(err)
	}
	report, err := explore.Refute(sys, 1, explore.RefuteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Violated() {
		t.Fatalf("set-boost passed as consensus:\n%s", report)
	}
	if report.Primary().Kind != explore.KindAgreement {
		t.Errorf("primary violation: %v (want agreement across groups)", report.Primary().Kind)
	}
}

func TestFindHookOnTOBCandidateTheorem9(t *testing.T) {
	// Theorem 9's proof reuses the hook machinery on failure-oblivious
	// services: the TOB candidate's mixed initialization is bivalent (the
	// global compute task's pick of the first ordered message decides the
	// winner), and the Fig. 3 construction exhibits a hook whose univalent
	// ends are similar at the broadcast service.
	sys, err := protocols.BuildTOBConsensus(2, 0, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	c, err := explore.ClassifyInits(sys, explore.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c.BivalentIndex < 0 {
		t.Fatal("no bivalent init for the TOB candidate")
	}
	res, err := explore.FindHook(context.Background(), c.Graph, c.Roots[c.BivalentIndex])
	if err != nil {
		t.Fatal(err)
	}
	if res.Hook == nil {
		t.Fatalf("expected a hook, got %+v", res)
	}
	s0, _ := c.Graph.State(res.Hook.Alpha0)
	s1, _ := c.Graph.State(res.Hook.Alpha1)
	who, similar := explore.SomeSimilarity(sys, s0, s1)
	if !similar || who != "b0" {
		t.Errorf("hook-end similarity: %q %v (want b0)", who, similar)
	}
}

func TestRefuteKSetBoundary(t *testing.T) {
	// The Section 4 boundary, measured: the set-boost system survives the
	// k-set refuter at k = 2 with the full wait-free claim (2n−1 = 3
	// failures), and is refuted at k = 1 (consensus).
	sys, err := protocols.BuildSetBoost(2)
	if err != nil {
		t.Fatal(err)
	}
	asTwoSet, err := explore.RefuteKSet(sys, 2, 3, explore.RefuteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if asTwoSet.Violated() {
		t.Fatalf("2-set claim refuted:\n%s", asTwoSet)
	}
	asConsensus, err := explore.RefuteKSet(sys, 1, 1, explore.RefuteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !asConsensus.Violated() {
		t.Fatal("1-set (consensus) claim not refuted")
	}
	if asConsensus.Primary().Kind != explore.KindAgreement {
		t.Errorf("violation kind: %v", asConsensus.Primary().Kind)
	}
}

func TestLemma3NoUnvalentStates(t *testing.T) {
	// Lemma 3: every finite failure-free input-first execution of a correct
	// candidate is bivalent or univalent — equivalently, no reachable
	// vertex of G(C) is unvalent (decision-free in all extensions).
	sys := mustForward(t, 2, 1, service.Adversarial)
	c, err := explore.ClassifyInits(sys, explore.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g := c.Graph
	seen := make([]bool, g.Size())
	queue := append([]explore.StateID{}, c.Roots...)
	checked := 0
	for head := 0; head < len(queue); head++ {
		id := queue[head]
		if seen[id] {
			continue
		}
		seen[id] = true
		checked++
		if g.Valence(id) == explore.Unvalent {
			t.Fatalf("unvalent reachable state found (Lemma 3 violated for a correct candidate)")
		}
		for _, e := range g.Succs(id) {
			queue = append(queue, e.To)
		}
	}
	if checked < 10 {
		t.Fatalf("suspiciously few states checked: %d", checked)
	}
}

func TestRefuteClaimZeroIsFailureFreeOnly(t *testing.T) {
	// claimed = 0: only failure-free behaviour is demanded (the f = 0 end
	// of the paper's spectrum). The forward candidate with a 0-resilient
	// object genuinely solves 0-resilient consensus, so no certificate.
	sys := mustForward(t, 2, 0, service.Adversarial)
	report, err := explore.Refute(sys, 0, explore.RefuteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Violated() {
		t.Fatalf("false refutation at claimed 0:\n%s", report)
	}
}

func TestRefuteClaimBeyondProcessCount(t *testing.T) {
	// Claiming more failures than processes: every failure set has all
	// processes dead, so termination is vacuous; with safety intact, no
	// violation for the wait-free candidate.
	sys := mustForward(t, 2, 1, service.Adversarial)
	report, err := explore.Refute(sys, 5, explore.RefuteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Violated() {
		t.Fatalf("false refutation at claimed 5:\n%s", report)
	}
}
