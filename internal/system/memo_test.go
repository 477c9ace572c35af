package system_test

// Tests of the component interning and transition memo behind system.State.
// The reference throughout is the component automata themselves — the
// process.Process and service.Service transitions and their own encoders and
// decoders — composed by hand the way System composed them before states
// were interned.

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"github.com/ioa-lab/boosting/internal/codec"
	"github.com/ioa-lab/boosting/internal/ioa"
	"github.com/ioa-lab/boosting/internal/process"
	"github.com/ioa-lab/boosting/internal/protocols"
	"github.com/ioa-lab/boosting/internal/service"
	"github.com/ioa-lab/boosting/internal/system"
)

// referenceApply composes one task of C directly from the component
// automata and returns the successor's fingerprint, encoded component by
// component.
func referenceApply(sys *system.System, st system.State, task ioa.Task) (string, ioa.Action, error) {
	procs, svcs := sys.ComponentStates(st)
	procSlot := func(id int) int {
		for slot, have := range sys.ProcessIDs() {
			if have == id {
				return slot
			}
		}
		return -1
	}
	svcSlot := func(k string) int {
		for slot, have := range sys.ServiceIDs() {
			if have == k {
				return slot
			}
		}
		return -1
	}
	var act ioa.Action
	switch task.Kind {
	case ioa.TaskProcess:
		slot := procSlot(task.Proc)
		procs[slot], act = sys.Process(task.Proc).Step(procs[slot])
		if act.Type == ioa.ActInvoke {
			k := svcSlot(act.Service)
			ss, err := sys.Service(act.Service).Invoke(svcs[k], task.Proc, act.Payload)
			if err != nil {
				return "", ioa.Action{}, err
			}
			svcs[k] = ss
		}
	default:
		k := svcSlot(task.Service)
		ss, a, err := sys.Service(task.Service).Apply(svcs[k], task)
		if err != nil {
			return "", ioa.Action{}, err
		}
		svcs[k], act = ss, a
		if task.Kind == ioa.TaskOutput && act.Type == ioa.ActRespond {
			slot := procSlot(act.Proc)
			procs[slot] = sys.Process(act.Proc).OnResponse(procs[slot], task.Service, act.Payload)
		}
	}
	var fp []byte
	for _, ps := range procs {
		fp = ps.AppendFingerprint(fp)
	}
	for _, ss := range svcs {
		fp = ss.AppendFingerprint(fp)
	}
	return string(fp), act, nil
}

// closure returns roots and the states reachable from them under the
// system's tasks, in BFS order, up to cap states.
func closure(sys *system.System, roots []system.State, cap int) []system.State {
	seen := map[string]bool{}
	var states []system.State
	add := func(st system.State) {
		if fp := sys.Fingerprint(st); !seen[fp] && len(states) < cap {
			seen[fp] = true
			states = append(states, st)
		}
	}
	for _, r := range roots {
		add(r)
	}
	for head := 0; head < len(states); head++ {
		for _, task := range sys.Tasks() {
			if succ, _, err := sys.Apply(states[head], task); err == nil {
				add(succ)
			}
		}
	}
	return states
}

// inputRoots returns the initialization of sys for every binary input
// assignment — the roots of G(C).
func inputRoots(t testing.TB, sys *system.System) []system.State {
	t.Helper()
	ids := sys.ProcessIDs()
	var roots []system.State
	for bits := 0; bits < 1<<len(ids); bits++ {
		st := sys.InitialState()
		for idx, id := range ids {
			next, _, err := sys.Init(st, id, string(rune('0'+bits>>idx&1)))
			if err != nil {
				t.Fatal(err)
			}
			st = next
		}
		roots = append(roots, st)
	}
	return roots
}

// reachable returns sys's failure-free graph G(C) from every binary input
// assignment, then the closures after failing process 0 and after failing
// processes 0 and 1 a few steps into one run — the second pushes a
// 1-resilient service past its resilience, which is where the silence
// policies differ. Each part is capped, for the detector families' infinite
// graphs.
func reachable(t testing.TB, sys *system.System, cap int) []system.State {
	t.Helper()
	roots := inputRoots(t, sys)
	states := closure(sys, roots, cap)
	for _, failed := range [][]int{{0}, {0, 1}} {
		st := roots[len(roots)/2]
		// A few steps first, so the failures find work in flight.
		for _, task := range sys.Tasks() {
			if next, _, err := sys.Apply(st, task); err == nil {
				st = next
			}
		}
		for _, p := range failed {
			next, _, err := sys.Fail(st, p)
			if err != nil {
				t.Fatal(err)
			}
			st = next
		}
		states = append(states, closure(sys, []system.State{st}, cap)...)
	}
	return states
}

// memoSystems are the systems the differential test sweeps, each built
// fresh so the sweep starts on empty tables.
func memoSystems(t testing.TB) map[string]func() *system.System {
	t.Helper()
	build := func(sys *system.System, err error) *system.System {
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	return map[string]func() *system.System{
		"forward-adversarial": func() *system.System { return build(protocols.BuildForward(3, 1, service.Adversarial)) },
		"forward-benign":      func() *system.System { return build(protocols.BuildForward(3, 1, service.Benign)) },
		"registervote":        func() *system.System { return build(protocols.BuildRegisterVote(2)) },
		"tob":                 func() *system.System { return build(protocols.BuildTOBConsensus(2, 0, service.Adversarial)) },
		"floodset-p":          func() *system.System { return build(protocols.BuildFloodSetWithP(3, 0, 2, service.Adversarial)) },
	}
}

// TestApplyMatchesComponentAutomata is the differential memo test: for
// every sampled vertex and every task of the system — applicable or not —
// Apply on the first call (memo miss) and on a repeat call (memo hit)
// agrees with the transition composed directly from the component automata
// on fingerprint bytes, action and error, and Applicable agrees with both.
func TestApplyMatchesComponentAutomata(t *testing.T) {
	for name, build := range memoSystems(t) {
		sys := build()
		states := reachable(t, sys, 1500)
		// The sweep runs on a second instance, so the first call below is
		// the first time its tables see each transition.
		sweep := build()
		checked := 0
		for i, st := range states {
			st, err := sweep.ParseFingerprint(sys.Fingerprint(st))
			if err != nil {
				t.Fatalf("%s state %d: %v", name, i, err)
			}
			for _, task := range sweep.Tasks() {
				wantFP, wantAct, wantErr := referenceApply(sweep, st, task)
				for _, call := range []string{"first", "repeat"} {
					if got := sweep.Applicable(st, task); got != (wantErr == nil) {
						t.Fatalf("%s state %d task %v (%s call): Applicable = %v, reference error %v", name, i, task, call, got, wantErr)
					}
					next, act, err := sweep.Apply(st, task)
					if (err == nil) != (wantErr == nil) || (err != nil && !strings.HasSuffix(err.Error(), wantErr.Error())) {
						t.Fatalf("%s state %d task %v (%s call): error %v, want %v", name, i, task, call, err, wantErr)
					}
					if err != nil {
						continue
					}
					if act != wantAct {
						t.Fatalf("%s state %d task %v (%s call): action %v, want %v", name, i, task, call, act, wantAct)
					}
					if fp := sweep.Fingerprint(next); fp != wantFP {
						t.Fatalf("%s state %d task %v (%s call): successor\n got  %q\n want %q", name, i, task, call, fp, wantFP)
					}
				}
				checked++
			}
		}
		t.Logf("%s: %d states, %d vertex×task pairs", name, len(states), checked)
	}
}

// TestCellCounts pins the property the memo pays off on, and that the
// tables hold one cell per distinct component state and nothing else: the
// 2486 states of forward n=4's G(C) are assembled from 7 states of each
// process (the initializations included), 344 of k0 and 1 of r0.
func TestCellCounts(t *testing.T) {
	sys, err := protocols.BuildForward(4, 0, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	// G(C) grows from the Lemma 4 monotone initializations α_0 … α_n: the
	// first i processes receive 1.
	all := inputRoots(t, sys)
	var roots []system.State
	for i := 0; i <= len(sys.ProcessIDs()); i++ {
		roots = append(roots, all[1<<i-1])
	}
	if got := len(closure(sys, roots, 1<<20)); got != 2486 {
		t.Fatalf("forward n=4 G(C) has %d states, want 2486", got)
	}
	procs, svcs := sys.CellCounts()
	for slot, n := range procs {
		if n != 7 {
			t.Errorf("process slot %d: %d cells, want 7", slot, n)
		}
	}
	if len(svcs) != 2 || svcs[0] != 344 || svcs[1] != 1 {
		t.Errorf("service cells %v, want [344 1]", svcs)
	}
}

// TestApplyAcrossSystems: cells carry the memo of the System that interned
// them, and the program and the silence policy are part of the transition.
// A state decoded by the adversarial system — after Fail has pushed the
// failures past k0's resilience, with that system's memo already holding
// the dummy step — must take the benign system's real step when the benign
// system applies it, and the other way round.
func TestApplyAcrossSystems(t *testing.T) {
	adv, err := protocols.BuildForward(3, 1, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	ben, err := protocols.BuildForward(3, 1, service.Benign)
	if err != nil {
		t.Fatal(err)
	}
	// Inputs delivered, every process has invoked k0, then P0 and P1 fail:
	// P2's invocation is pending and both perform_2 and dummy_perform_2 are
	// enabled.
	st := sampleStates(t, adv, 2)[1]
	for _, id := range adv.ProcessIDs() {
		if st, _, err = adv.Apply(st, ioa.ProcessTask(id)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []int{0, 1} {
		if st, _, err = adv.Fail(st, p); err != nil {
			t.Fatal(err)
		}
	}
	fp := adv.Fingerprint(st)
	task := ioa.PerformTask("k0", 2)
	for _, tc := range []struct {
		name          string
		decode, apply *system.System
		want          ioa.ActionType
	}{
		{"adversarial cells under benign", adv, ben, ioa.ActPerform},
		{"benign cells under adversarial", ben, adv, ioa.ActDummyPerform},
	} {
		foreign, err := tc.decode.ParseFingerprint(fp)
		if err != nil {
			t.Fatal(err)
		}
		// Fill the decoding system's memo for this very transition first.
		if _, _, err := tc.decode.Apply(foreign, task); err != nil {
			t.Fatal(err)
		}
		native, err := tc.apply.ParseFingerprint(fp)
		if err != nil {
			t.Fatal(err)
		}
		wantNext, wantAct, err := tc.apply.Apply(native, task)
		if err != nil {
			t.Fatal(err)
		}
		if wantAct.Type != tc.want {
			t.Fatalf("%s: native action %v, want type %v", tc.name, wantAct, tc.want)
		}
		if !tc.apply.Applicable(foreign, task) {
			t.Errorf("%s: task not applicable on the foreign state", tc.name)
		}
		next, act, err := tc.apply.Apply(foreign, task)
		if err != nil {
			t.Fatal(err)
		}
		if act != wantAct {
			t.Errorf("%s: action %v, want %v", tc.name, act, wantAct)
		}
		if got, want := tc.apply.Fingerprint(next), tc.apply.Fingerprint(wantNext); got != want {
			t.Errorf("%s: successor\n got  %q\n want %q", tc.name, got, want)
		}
	}
}

// expansion is what one pass over a frontier observes: per state and task,
// the successor fingerprint and action ("" for an inapplicable task).
type expansion struct {
	fps  []string
	acts []ioa.Action
}

func expand(sys *system.System, frontier []system.State) (expansion, []system.State) {
	var out expansion
	var succs []system.State
	var buf []byte
	for _, st := range frontier {
		for _, task := range sys.Tasks() {
			if !sys.Applicable(st, task) {
				out.fps = append(out.fps, "")
				out.acts = append(out.acts, ioa.Action{})
				continue
			}
			next, act, err := sys.Apply(st, task)
			if err != nil {
				out.fps = append(out.fps, "error: "+err.Error())
				out.acts = append(out.acts, ioa.Action{})
				continue
			}
			buf = sys.AppendFingerprint(buf[:0], next)
			out.fps = append(out.fps, string(buf))
			out.acts = append(out.acts, act)
			succs = append(succs, next)
		}
	}
	return out, succs
}

// TestConcurrentApply drives one System from four goroutines that all expand
// the same frontier, level by level — so they race to fill the same cells'
// memo and the same tables — and compares what each goroutine observed with
// a serial run on a second instance. Run with -race -count=10 (make race).
func TestConcurrentApply(t *testing.T) {
	const goroutines = 4
	shared, err := protocols.BuildForward(3, 1, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := protocols.BuildForward(3, 1, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	frontier := []system.State{sampleStates(t, serial, 2)[1]}
	seen := map[string]bool{}
	for level := 0; level < 12 && len(frontier) > 0; level++ {
		want, succs := expand(serial, frontier)
		// Every goroutine decodes the frontier itself, racing on the tables
		// from the first lookup on.
		fps := make([]string, len(frontier))
		for i, st := range frontier {
			fps[i] = serial.Fingerprint(st)
		}
		got := make([]expansion, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				mine := make([]system.State, len(fps))
				for i, fp := range fps {
					st, err := shared.ParseFingerprint(fp)
					if err != nil {
						t.Errorf("level %d goroutine %d: %v", level, g, err)
						return
					}
					mine[i] = st
				}
				got[g], _ = expand(shared, mine)
			}(g)
		}
		wg.Wait()
		for g := range got {
			if len(got[g].fps) != len(want.fps) {
				t.Fatalf("level %d goroutine %d: %d results, want %d", level, g, len(got[g].fps), len(want.fps))
			}
			for i := range want.fps {
				if got[g].fps[i] != want.fps[i] || got[g].acts[i] != want.acts[i] {
					t.Fatalf("level %d goroutine %d result %d: (%q, %v), want (%q, %v)",
						level, g, i, got[g].fps[i], got[g].acts[i], want.fps[i], want.acts[i])
				}
			}
		}
		frontier = frontier[:0]
		for _, st := range succs {
			if fp := serial.Fingerprint(st); !seen[fp] {
				seen[fp] = true
				frontier = append(frontier, st)
			}
		}
	}
	if len(seen) < 100 {
		t.Fatalf("only %d states explored; the frontier died early", len(seen))
	}
}

// referenceParse is ParseFingerprint as the component decoders alone define
// it: one process state per process, one service state per service, nothing
// left over. It returns the re-encoding of what it decoded.
func referenceParse(sys *system.System, fp string) (string, error) {
	rest := fp
	var enc []byte
	for range sys.ProcessIDs() {
		ps, r, err := process.ParseStatePrefix(rest)
		if err != nil {
			return "", err
		}
		enc, rest = ps.AppendFingerprint(enc), r
	}
	for range sys.ServiceIDs() {
		ss, r, err := service.ParseStatePrefix(rest)
		if err != nil {
			return "", err
		}
		enc, rest = ss.AppendFingerprint(enc), r
	}
	if rest != "" {
		return "", codec.ErrMalformed
	}
	return string(enc), nil
}

// checkParseAgainstReference holds ParseFingerprint to the component
// decoders on one input: same accept/reject decision, rejections wrap
// codec.ErrMalformed, and an accepted input re-encodes to the bytes the
// reference re-encodes it to.
func checkParseAgainstReference(t *testing.T, label string, sys *system.System, input string) {
	t.Helper()
	want, wantErr := referenceParse(sys, input)
	st, err := sys.ParseFingerprint(input)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: ParseFingerprint(%q) error %v, reference error %v", label, input, err, wantErr)
	}
	if err != nil {
		if !errors.Is(err, codec.ErrMalformed) {
			t.Fatalf("%s: rejection of %q does not wrap codec.ErrMalformed: %v", label, input, err)
		}
		return
	}
	if got := sys.Fingerprint(st); got != want {
		t.Fatalf("%s: %q re-encodes to\n got  %q\n want %q", label, input, got, want)
	}
}

// parseCorpus is the decoder's malformed-input corpus (the fuzz seeds and
// the TestParseFingerprintMalformed mutations, applied to every sampled
// fingerprint) together with the well-formed fingerprints themselves.
func parseCorpus(fps []string) []string {
	corpus := []string{"", "[2:<>2:[]0:0:]", "[999999999:x]", "[-1:]"}
	for _, fp := range fps {
		corpus = append(corpus,
			fp,
			fp[:len(fp)/2],
			fp[1:],
			fp+"tail",
			strings.Replace(fp, "[", "{", 1),
			fp+fp,
			fp[:len(fp)-1],
			strings.Replace(fp, "1:0", "1:9", 1),
		)
	}
	return corpus
}

// TestParseFingerprintHitAndMiss: ParseFingerprint answers from the cell
// tables when it can, and that must never change what it accepts. Every
// corpus input is parsed by a System with empty tables (every component a
// miss), by the same System again (hits where the first pass interned), and
// by a System whose tables already hold every sampled component — so a
// malformed input whose leading components hit is still rejected on its
// tail.
func TestParseFingerprintHitAndMiss(t *testing.T) {
	warm, err := protocols.BuildForward(2, 0, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	var fps []string
	for _, st := range sampleStates(t, warm, 40) {
		fps = append(fps, warm.Fingerprint(st))
	}
	cold, err := protocols.BuildForward(2, 0, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	for _, input := range parseCorpus(fps) {
		checkParseAgainstReference(t, "miss", cold, input)
		checkParseAgainstReference(t, "hit", cold, input)
		checkParseAgainstReference(t, "warm", warm, input)
	}
}
