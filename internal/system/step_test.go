package system_test

// Tests of System.Step, the stepping primitive under Apply, Applicable and
// Enabled: it must be Apply — same applicability, same successor, same action,
// checked against the component automata themselves — and keying a successor
// from its delta must agree with keying the successor.

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/ioa-lab/boosting/internal/ioa"
	"github.com/ioa-lab/boosting/internal/system"
)

// checkStep steps every task index from st under sys, whose cells st may or
// may not point into, and holds the answer to Applicable, to the unmemoised
// reference (referenceApply) and to the keys of the materialised successor.
// It holds the candidate list to Step as well: a task the list leaves out
// steps ok = false, err = nil, and after the pass the list is exactly the
// applicable tasks. It returns the successors.
func checkStep(t *testing.T, label string, sys *system.System, st system.State) []system.State {
	t.Helper()
	var succs []system.State
	var applicable []int
	key := sys.AppendKey(nil, st)
	candidates := sys.AppendCandidates(nil, st)
	if !slices.IsSorted(candidates) || len(slices.Compact(slices.Clone(candidates))) != len(candidates) {
		t.Fatalf("%s: candidates %v are not in task order", label, candidates)
	}
	for i, task := range sys.Tasks() {
		d, l, ok, err := sys.Step(st, i)
		if err != nil {
			t.Fatalf("%s: Step(%v): %v", label, task, err)
		}
		if ok {
			if !slices.Contains(candidates, i) {
				t.Fatalf("%s: Step(%v) is applicable, yet not a candidate", label, task)
			}
			applicable = append(applicable, i)
		}
		if got := sys.Applicable(st, task); got != ok {
			t.Fatalf("%s: Step(%v) ok = %v, Applicable = %v", label, task, ok, got)
		}
		wantFP, wantAct, wantErr := referenceApply(sys, st, task)
		if ok != (wantErr == nil) {
			t.Fatalf("%s: Step(%v) ok = %v, the automata say %v", label, task, ok, wantErr)
		}
		if act, enabled := sys.Enabled(st, task); enabled != ok || (ok && act != wantAct) {
			t.Fatalf("%s: Enabled(%v) = %v, %v; want %v, %v", label, task, act, enabled, wantAct, ok)
		}
		if !ok {
			if d != (system.Delta{}) {
				t.Fatalf("%s: Step(%v) not applicable, yet a delta %+v", label, task, d)
			}
			continue
		}
		next := st.With(d)
		if got := sys.Fingerprint(next); got != wantFP {
			t.Fatalf("%s: Step(%v) leads to\n%q, the automata to\n%q", label, task, got, wantFP)
		}
		if gotTask, gotAct := sys.Resolve(l); gotTask != task || gotAct != wantAct || int(l.Task) != i {
			t.Fatalf("%s: Step(%v) labelled %v = (%v, %v), the automata perform %v", label, task, l, gotTask, gotAct, wantAct)
		}
		applied, act, err := sys.Apply(st, task)
		if err != nil || act != wantAct || sys.Fingerprint(applied) != wantFP {
			t.Fatalf("%s: Apply(%v) = %v, %v", label, task, act, err)
		}
		if got, want := sys.AppendSuccKey(nil, key, d), sys.AppendKey(nil, next); !bytes.Equal(got, want) {
			t.Fatalf("%s: Step(%v): key from the delta %x, key of the successor %x", label, task, got, want)
		}
		succs = append(succs, next)
	}
	if after := sys.AppendCandidates(nil, st); !slices.Equal(after, applicable) {
		t.Fatalf("%s: after a Step pass the candidates are %v, the applicable tasks %v", label, after, applicable)
	}
	return succs
}

// TestStepIsApply: for every protocol family, over a BFS sample of the
// reachable states and along random walks with failures, every task index
// stepped from every state agrees with Applicable, Enabled, Apply and the raw
// component automata, and the successor's dense key comes out of the
// parent's and the delta alone — for parents in the System's own cells,
// decoded, borrowed from a second same-shape System, and moved whole between
// slots with Permuted.
func TestStepIsApply(t *testing.T) {
	others := registrySystems(t)
	for name, sys := range registrySystems(t) {
		other := others[name]
		rng := rand.New(rand.NewSource(22))
		own := sampleStates(t, sys, 120)
		foreign := sampleStates(t, other, 40)
		for range 2 {
			own = append(own, randomWalk(t, sys, rng, 60)...)
			foreign = append(foreign, randomWalk(t, other, rng, 40)...)
		}
		n := len(sys.ProcessIDs())
		rotate := make([]int, n)
		for i := range rotate {
			rotate[i] = (i + 1) % n
		}
		steps := 0
		for i, st := range own {
			steps += len(checkStep(t, name+" own cells", sys, st))
			if i%4 == 0 {
				parsed, err := sys.ParseFingerprint(sys.Fingerprint(st))
				if err != nil {
					t.Fatal(err)
				}
				checkStep(t, name+" decoded", sys, parsed)
			}
			if name == "forward" && i%4 == 1 {
				checkStep(t, name+" permuted", sys, sys.Permuted(st, rotate))
			}
		}
		for _, st := range foreign {
			// The successors of a foreign parent mix its cells with sys's.
			if succs := checkStep(t, name+" foreign cells", sys, st); len(succs) > 0 {
				checkStep(t, name+" mixed cells", sys, succs[rng.Intn(len(succs))])
			}
		}
		if steps < 200 {
			t.Fatalf("%s: only %d applicable steps checked", name, steps)
		}
	}
}

// TestConcurrentActionNumbers: four goroutines decode the same states into one
// cold System and step every task from each, every goroutine starting
// somewhere else in the list, so they race to publish the same memo edges and
// to number the same actions. Afterwards every task's numbering is dense and
// duplicate-free, and all four got the same label, resolving to the same
// action, for the same step. Run with -race -count=10 (make race).
func TestConcurrentActionNumbers(t *testing.T) {
	const goroutines = 4
	source := registrySystems(t)["forward"]
	var fps []string
	for _, st := range sampleStates(t, source, 400) {
		fps = append(fps, source.Fingerprint(st))
	}
	shared := registrySystems(t)["forward"]
	tasks := len(shared.Tasks())
	type step struct {
		l   system.Label
		act ioa.Action
		ok  bool
	}
	got := make([][]step, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = make([]step, len(fps)*tasks)
			for k := range fps {
				i := (k + g*len(fps)/goroutines) % len(fps)
				st, err := shared.ParseFingerprint(fps[i])
				if err != nil {
					t.Error(err)
					return
				}
				for task := range tasks {
					_, l, ok, err := shared.Step(st, task)
					if err != nil {
						t.Error(err)
						return
					}
					s := step{l: l, ok: ok}
					if ok {
						_, s.act = shared.Resolve(l)
					}
					got[g][i*tasks+task] = s
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	applicable := 0
	for i, want := range got[0] {
		for g := 1; g < goroutines; g++ {
			if got[g][i] != want {
				t.Fatalf("state %d task %d: goroutine 0 stepped %+v, goroutine %d %+v", i/tasks, i%tasks, want, g, got[g][i])
			}
		}
		if want.ok {
			applicable++
		}
	}
	numbered := 0
	for task, acts := range shared.TaskActions() {
		for i, act := range acts {
			if slices.Index(acts, act) != i {
				t.Fatalf("task %v numbered %v twice: %v", shared.Tasks()[task], act, acts)
			}
		}
		numbered += len(acts)
	}
	for _, s := range got[0] {
		if acts := shared.TaskActions()[s.l.Task]; s.ok && (int(s.l.Act) >= len(acts) || acts[s.l.Act] != s.act) {
			t.Fatalf("label %v resolved to %v, the numbering holds %v", s.l, s.act, acts)
		}
	}
	if applicable < 500 || numbered < 10 {
		t.Fatalf("only %d applicable steps and %d numbered actions", applicable, numbered)
	}
}

// TestConcurrentCandidates: four goroutines decode the same states into one
// cold System, each starting somewhere else in the list, and list and step
// every task from each, so they race to publish the same not-enabled bits
// that others are reading. A task a list leaves out must step ok = false, and
// once every goroutine is done each state's list is its applicable set. Run
// with -race -count=10 (make race).
func TestConcurrentCandidates(t *testing.T) {
	const goroutines = 4
	source := registrySystems(t)["forward"]
	var fps []string
	for _, st := range sampleStates(t, source, 400) {
		fps = append(fps, source.Fingerprint(st))
	}
	shared := registrySystems(t)["forward"]
	tasks := len(shared.Tasks())
	applicable := make([][]bool, len(fps))
	for i := range applicable {
		applicable[i] = make([]bool, tasks)
	}
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range fps {
				i := (k + g*len(fps)/goroutines) % len(fps)
				st, err := shared.ParseFingerprint(fps[i])
				if err != nil {
					t.Error(err)
					return
				}
				candidates := shared.AppendCandidates(nil, st)
				for task := range tasks {
					_, _, ok, err := shared.Step(st, task)
					if err != nil {
						t.Error(err)
						return
					}
					if ok && !slices.Contains(candidates, task) {
						t.Errorf("state %d: task %v is applicable, yet not a candidate", i, shared.Tasks()[task])
						return
					}
					if g == 0 {
						applicable[i][task] = ok
					}
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	skipped := 0
	for i, fp := range fps {
		st, err := shared.ParseFingerprint(fp)
		if err != nil {
			t.Fatal(err)
		}
		var want []int
		for task, ok := range applicable[i] {
			if ok {
				want = append(want, task)
			}
		}
		if got := shared.AppendCandidates(nil, st); !slices.Equal(got, want) {
			t.Fatalf("state %d: candidates %v, applicable tasks %v", i, got, want)
		}
		skipped += tasks - len(want)
	}
	if skipped < 1000 {
		t.Fatalf("only %d tasks left out", skipped)
	}
}

// BenchmarkStep times the stepping primitive on its hit path — every memo edge
// published, which is where a level loop spends 86 % of its steps — over every
// task index from a BFS sample of forward n=3: one op is one Step, applicable
// or not, and allocates nothing (make bench-allocs).
func BenchmarkStep(b *testing.B) {
	sys := registrySystems(b)["forward"]
	states := sampleStates(b, sys, 400)
	tasks := len(sys.Tasks())
	for _, st := range states {
		for t := range tasks {
			if _, _, _, err := sys.Step(st, t); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	applicable := 0
	for i := 0; i < b.N; i++ {
		if _, _, ok, _ := sys.Step(states[i/tasks%len(states)], i%tasks); ok {
			applicable++
		}
	}
	b.ReportMetric(float64(applicable)/float64(b.N), "applicable/op")
}
