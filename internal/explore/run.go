// Package explore mechanizes the proof machinery of the paper on concrete
// finite systems: fair schedulers, the execution graph G(C) of Section 3.3,
// valence classification and bivalent initializations (Section 3.2, Lemma 4),
// the hook construction of Fig. 3 (Lemma 5), state similarity (Section 3.5),
// and a refuter that extracts concrete counterexample executions from
// candidate boosting protocols (the executable content of Theorems 2, 9
// and 10).
package explore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"github.com/ioa-lab/boosting/internal/ioa"
	"github.com/ioa-lab/boosting/internal/system"
)

// Errors returned by exploration.
var (
	ErrStateExplosion = errors.New("explore: state limit exceeded")
	ErrNotBivalent    = errors.New("explore: root execution is not bivalent")
	ErrNoDecision     = errors.New("explore: no decision reachable")
)

// LimitError reports that graph construction hit its vertex budget. It
// wraps ErrStateExplosion, so errors.Is(err, ErrStateExplosion) keeps
// working; errors.As gives callers the partial exploration count for
// surfacing ("explored N states before the limit").
type LimitError struct {
	// Limit is the MaxStates budget that was exceeded.
	Limit int
	// Explored is the number of distinct states stored when construction
	// stopped.
	Explored int
}

// Error keeps the historical sentinel-wrapped message.
func (e *LimitError) Error() string {
	return fmt.Sprintf("%v: > %d states", ErrStateExplosion, e.Limit)
}

// Unwrap ties the typed error to the ErrStateExplosion sentinel.
func (e *LimitError) Unwrap() error { return ErrStateExplosion }

// FailureEvent schedules the fail_i input before the given round-robin
// round of a run (round 0 = immediately after the initializations).
type FailureEvent struct {
	Round int
	Proc  int
}

// RunConfig configures a scheduled run of the system.
type RunConfig struct {
	// Inputs assigns init values per process; processes absent from the map
	// receive no input (the paper's modified termination condition only
	// covers processes that received inputs).
	Inputs map[int]string
	// Failures injects fail inputs before given rounds.
	Failures []FailureEvent
	// MaxRounds caps the number of fair round-robin rounds (a round gives
	// every task one turn). Zero means a generous default.
	MaxRounds int
}

// RunResult reports a scheduled run.
type RunResult struct {
	Exec      ioa.Execution
	Final     system.State
	Decisions map[int]string
	// Done reports that every live process that received an input decided —
	// the modified termination condition of Section 2.2.4.
	Done bool
	// Diverged reports that the run revisited a state at a round boundary
	// without reaching Done: the deterministic fair schedule cycles forever
	// and no further decision will ever happen.
	Diverged bool
	Rounds   int
}

const defaultMaxRounds = 10_000

// runner owns one scheduled execution: the current state, the inputs the
// modified-termination test reads, and the execution trace, which is
// recorded only when the caller returns it. Every schedule — the fair
// rounds of RoundRobin and RoundRobinFrom, Random's draws, the refuters'
// failure scenarios, and the bare initializations of ApplyInputs — drives
// the system through its three steps: input delivery, fail and task.
type runner struct {
	sys    *system.System
	st     system.State
	inputs map[int]string
	trace  bool
	steps  []ioa.Step
}

// newRunner starts a run at the system's initial state.
func newRunner(sys *system.System, inputs map[int]string, trace bool) *runner {
	return &runner{sys: sys, st: sys.InitialState(), inputs: inputs, trace: trace}
}

// take moves the run to next, recording step if a trace is kept.
func (r *runner) take(next system.State, step ioa.Step) {
	r.st = next
	if r.trace {
		step.After = r.sys.Fingerprint(next)
		r.steps = append(r.steps, step)
	}
}

// deliverInputs delivers every input, in process order: the input-first
// prefix of Section 3.2.
func (r *runner) deliverInputs() error {
	for _, i := range sortedInputKeys(r.inputs) {
		next, act, err := r.sys.Init(r.st, i, r.inputs[i])
		if err != nil {
			return err
		}
		r.take(next, ioa.Step{Action: act})
	}
	return nil
}

// fail injects fail_p.
func (r *runner) fail(p int) error {
	next, act, err := r.sys.Fail(r.st, p)
	if err != nil {
		return err
	}
	r.take(next, ioa.Step{Action: act})
	return nil
}

// step gives task one turn; the caller has checked it is applicable.
func (r *runner) step(task ioa.Task) error {
	next, act, err := r.sys.Apply(r.st, task)
	if err != nil {
		return err
	}
	r.take(next, ioa.Step{HasTask: true, Task: task, Action: act})
	return nil
}

// terminated reports the modified termination condition of Section 2.2.4:
// every live process that received an input has decided.
func (r *runner) terminated() bool {
	dec := r.sys.Decisions(r.st)
	for _, i := range r.sys.LiveProcesses(r.st) {
		if _, gotInput := r.inputs[i]; !gotInput {
			continue
		}
		if _, decided := dec[i]; !decided {
			return false
		}
	}
	return true
}

// result closes the run.
func (r *runner) result(res RunResult) RunResult {
	res.Exec = ioa.Execution{Steps: r.steps}
	res.Final = r.st
	res.Decisions = r.sys.Decisions(r.st)
	return res
}

// fairRounds is the canonical fair schedule from the current state: rounds
// in which every task gets one turn, skipping inapplicable tasks, with the
// failures keyed by round injected before their round. It stops at modified
// termination, when the state repeats at a round boundary (divergence: the
// schedule is deterministic, so the run cycles), or at maxRounds. Divergence
// detection starts once every failure is injected, so without failures it
// starts at round 0.
func (r *runner) fairRounds(failures []FailureEvent, maxRounds int) (RunResult, error) {
	if maxRounds <= 0 {
		maxRounds = defaultMaxRounds
	}
	byRound := map[int][]int{}
	quiet := 0 // the first round after the last injection
	for _, f := range failures {
		byRound[f.Round] = append(byRound[f.Round], f.Proc)
		quiet = max(quiet, f.Round+1)
	}
	for _, procs := range byRound {
		sort.Ints(procs)
	}
	seen := map[string]bool{} // states stood in at a round boundary, by cell key
	var buf []byte
	res := RunResult{}
	for round := 0; round < maxRounds; round++ {
		for _, p := range byRound[round] {
			if err := r.fail(p); err != nil {
				return RunResult{}, err
			}
		}
		if r.terminated() {
			res.Done = true
			break
		}
		if round >= quiet {
			buf = r.sys.AppendKey(buf[:0], r.st)
			if seen[string(buf)] {
				res.Diverged = true
				break
			}
			seen[string(buf)] = true
		}
		for _, task := range r.sys.Tasks() {
			if !r.sys.Applicable(r.st, task) {
				continue
			}
			if err := r.step(task); err != nil {
				return RunResult{}, err
			}
		}
		res.Rounds = round + 1
		if r.terminated() {
			res.Done = true
			break
		}
	}
	return r.result(res), nil
}

// RoundRobin runs the system under the canonical fair schedule: inputs
// first (input-first executions, Section 3.2), then rounds in which every
// task of C gets one turn, skipping inapplicable tasks. The I/O-automata
// fairness condition is satisfied in the limit: every task gets infinitely
// many turns.
//
// The run stops when modified termination is met, when the state repeats at
// a round boundary (divergence: the schedule is deterministic, so the run
// cycles), or at MaxRounds.
func RoundRobin(sys *system.System, cfg RunConfig) (RunResult, error) {
	return roundRobin(sys, cfg, true)
}

// roundRobin is RoundRobin with the trace optional.
func roundRobin(sys *system.System, cfg RunConfig, trace bool) (RunResult, error) {
	r := newRunner(sys, cfg.Inputs, trace)
	if err := r.deliverInputs(); err != nil {
		return RunResult{}, err
	}
	return r.fairRounds(cfg.Failures, cfg.MaxRounds)
}

// RoundRobinFrom runs the fair round-robin schedule from an arbitrary state
// (inputs and failures already delivered). The inputs map is used only for
// the modified-termination stop condition.
func RoundRobinFrom(sys *system.System, st system.State, inputs map[int]string, maxRounds int) (RunResult, error) {
	r := &runner{sys: sys, st: st, inputs: inputs, trace: true}
	return r.fairRounds(nil, maxRounds)
}

// Random runs the system under a seeded random schedule for the given
// number of steps (or until modified termination). Random schedules are not
// fair in any finite prefix; they are used for property bashing, not for
// liveness verdicts.
func Random(sys *system.System, cfg RunConfig, seed int64, steps int) (RunResult, error) {
	// The one sanctioned randomness in the engine: the schedule is drawn
	// from a caller-provided seed, so a run is reproducible by quoting
	// (seed, steps) — nondeterminism across runs is the caller's choice,
	// never ambient.
	rng := rand.New(rand.NewSource(seed)) //lint:boostvet-ignore determinism — explicitly seeded RunRandom path
	r := newRunner(sys, cfg.Inputs, true)
	if err := r.deliverInputs(); err != nil {
		return RunResult{}, err
	}
	// Random runs inject the configured failures at random points; the
	// FailureEvent round is ignored.
	failed := map[int]bool{}
	pendingFailures := make([]int, 0, len(cfg.Failures))
	for _, f := range cfg.Failures {
		pendingFailures = append(pendingFailures, f.Proc)
	}
	res := RunResult{}
	for step := 0; step < steps; step++ {
		if r.terminated() {
			res.Done = true
			break
		}
		// With small probability, deliver a pending failure.
		if len(pendingFailures) > 0 && rng.Intn(10) == 0 {
			p := pendingFailures[0]
			pendingFailures = pendingFailures[1:]
			if !failed[p] {
				if err := r.fail(p); err != nil {
					return RunResult{}, err
				}
				failed[p] = true
			}
			continue
		}
		var applicable []ioa.Task
		for _, task := range sys.Tasks() {
			if sys.Applicable(r.st, task) {
				applicable = append(applicable, task)
			}
		}
		if len(applicable) == 0 {
			break
		}
		if err := r.step(applicable[rng.Intn(len(applicable))]); err != nil {
			return RunResult{}, err
		}
	}
	if !res.Done {
		res.Done = r.terminated()
	}
	return r.result(res), nil
}

// RunBatch runs every configuration under the canonical fair schedule,
// spread across the given number of workers (0 = one per CPU the process may
// use, 1 = the calling goroutine only), and returns the results in input
// order. Runs are independent —
// the system structure is immutable and states are copy-on-write — so the
// batch result is identical to running the configurations one by one; on
// error the first failing configuration's error (in input order) is
// returned.
//
// RunBatch is a bulk-verification primitive: its runs record no execution
// trace (a batch of thousands of configurations would otherwise pin every
// trace in memory at once), so Exec is empty. Run RoundRobin directly when
// Exec is needed.
//
// Each worker checks ctx before starting its next configuration, so a
// cancelled batch returns ctx.Err() promptly instead of draining the
// remaining runs. A nil context never cancels.
func RunBatch(ctx context.Context, sys *system.System, cfgs []RunConfig, workers int) ([]RunResult, error) {
	results := make([]RunResult, len(cfgs))
	errs := make([]error, len(cfgs))
	parallelFor(effectiveWorkers(workers), len(cfgs), func(i int) {
		if err := ctxErr(ctx); err != nil {
			errs[i] = err
			return
		}
		results[i], errs[i] = roundRobin(sys, cfgs[i], false)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

func sortedInputKeys(inputs map[int]string) []int {
	keys := make([]int, 0, len(inputs))
	for k := range inputs {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// fmtAssignment renders an input assignment for reports.
func fmtAssignment(inputs map[int]string) string {
	keys := sortedInputKeys(inputs)
	s := ""
	for _, k := range keys {
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("P%d←%s", k, inputs[k])
	}
	return s
}
