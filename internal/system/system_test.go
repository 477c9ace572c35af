package system

import (
	"errors"
	"math"
	"testing"

	"github.com/ioa-lab/boosting/internal/ioa"
	"github.com/ioa-lab/boosting/internal/process"
	"github.com/ioa-lab/boosting/internal/seqtype"
	"github.com/ioa-lab/boosting/internal/service"
	"github.com/ioa-lab/boosting/internal/servicetype"
)

// forwardProgram forwards its init to consensus object "k0" and decides on
// the object's response — the canonical "solve consensus with a consensus
// service" protocol.
type forwardProgram struct{}

func (forwardProgram) Start(int) map[string]string { return nil }
func (forwardProgram) HandleInit(ctx *process.Context, v string) {
	ctx.Invoke("k0", seqtype.Init(v))
}
func (forwardProgram) HandleResponse(ctx *process.Context, svc, resp string) {
	if v, ok := seqtype.DecideValue(resp); ok && svc == "k0" {
		ctx.Decide(v)
	}
}

func newTestSystem(t *testing.T, n, f int, policy service.SilencePolicy) *System {
	t.Helper()
	procs := make([]*process.Process, n)
	eps := make([]int, n)
	for i := 0; i < n; i++ {
		procs[i] = process.New(i, forwardProgram{})
		eps[i] = i
	}
	obj, err := service.New(service.Config{
		Index:      "k0",
		Type:       servicetype.FromSequential(seqtype.BinaryConsensus()),
		Endpoints:  eps,
		Resilience: f,
		Policy:     policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := service.NewRegister("r0", []string{"", "0", "1"}, "", eps)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(procs, []*service.Service{obj, reg})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewValidation(t *testing.T) {
	p0 := process.New(0, forwardProgram{})
	p0dup := process.New(0, forwardProgram{})
	if _, err := New([]*process.Process{p0, p0dup}, nil); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("dup process: %v", err)
	}
	obj, err := service.NewWaitFree("k0",
		servicetype.FromSequential(seqtype.BinaryConsensus()), []int{0, 7}, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New([]*process.Process{p0}, []*service.Service{obj}); !errors.Is(err, ErrBadEndpoint) {
		t.Errorf("bad endpoint: %v", err)
	}
}

func TestTaskEnumerationOrder(t *testing.T) {
	sys := newTestSystem(t, 2, 1, service.Adversarial)
	tasks := sys.Tasks()
	// 2 process tasks + (2 perform + 2 output) per service × 2 services.
	if len(tasks) != 2+4+4 {
		t.Fatalf("task count: %d (%v)", len(tasks), tasks)
	}
	if tasks[0] != ioa.ProcessTask(0) || tasks[1] != ioa.ProcessTask(1) {
		t.Errorf("process tasks first: %v", tasks[:2])
	}
}

func TestEndToEndConsensusRun(t *testing.T) {
	sys := newTestSystem(t, 2, 1, service.Adversarial)
	st := sys.InitialState()

	var err error
	st, _, err = sys.Init(st, 0, "0")
	if err != nil {
		t.Fatal(err)
	}
	st, _, err = sys.Init(st, 1, "1")
	if err != nil {
		t.Fatal(err)
	}

	// Round-robin all tasks until both processes decide.
	for iter := 0; iter < 100; iter++ {
		for _, task := range sys.Tasks() {
			if !sys.Applicable(st, task) {
				continue
			}
			var applyErr error
			st, _, applyErr = sys.Apply(st, task)
			if applyErr != nil {
				t.Fatal(applyErr)
			}
		}
		if len(sys.Decisions(st)) == 2 {
			break
		}
	}
	dec := sys.Decisions(st)
	if len(dec) != 2 {
		t.Fatalf("decisions: %v", dec)
	}
	if dec[0] != dec[1] {
		t.Errorf("agreement violated: %v", dec)
	}
	if dec[0] != "0" && dec[0] != "1" {
		t.Errorf("validity violated: %v", dec)
	}
}

func TestInvokeDeliveredToService(t *testing.T) {
	sys := newTestSystem(t, 2, 1, service.Adversarial)
	st := sys.InitialState()
	st, _, _ = sys.Init(st, 0, "1")
	st2, act, err := sys.Apply(st, ioa.ProcessTask(0))
	if err != nil {
		t.Fatal(err)
	}
	if act.Type != ioa.ActInvoke || act.Service != "k0" {
		t.Fatalf("action: %v", act)
	}
	if got := sys.SvcState(st2, "k0").PendingInvocations(0); len(got) != 1 || got[0] != seqtype.Init("1") {
		t.Errorf("service inv-buffer: %v", got)
	}
}

func TestResponseDeliveredToProcess(t *testing.T) {
	sys := newTestSystem(t, 2, 1, service.Adversarial)
	st := sys.InitialState()
	st, _, _ = sys.Init(st, 0, "1")
	st, _, _ = sys.Apply(st, ioa.ProcessTask(0))           // invoke
	st, _, _ = sys.Apply(st, ioa.PerformTask("k0", 0))     // perform
	st, act, err := sys.Apply(st, ioa.OutputTask("k0", 0)) // respond
	if err != nil || act.Type != ioa.ActRespond {
		t.Fatalf("respond: %v %v", act, err)
	}
	// The process reacted by queueing decide (recorded only at emission).
	if ps := sys.ProcState(st, 0); !ps.DecideQueued || ps.HasDec {
		t.Fatalf("process state after response: %+v", ps)
	}
	st, act, err = sys.Apply(st, ioa.ProcessTask(0))
	if err != nil || act.Type != ioa.ActDecide || act.Payload != "1" {
		t.Fatalf("decide: %v %v", act, err)
	}
	if got := sys.Decisions(st); got[0] != "1" {
		t.Errorf("Decisions: %v", got)
	}
}

func TestFailPropagatesToServices(t *testing.T) {
	sys := newTestSystem(t, 3, 1, service.Adversarial)
	st := sys.InitialState()
	st, act, err := sys.Fail(st, 1)
	if err != nil || act.Type != ioa.ActFail {
		t.Fatal(err)
	}
	if !sys.ProcState(st, 1).Failed {
		t.Error("process not failed")
	}
	for _, k := range sys.ServiceIDs() {
		if !sys.SvcState(st, k).Failed.Has(1) {
			t.Errorf("service %s did not record failure", k)
		}
	}
	if got := sys.FailedProcesses(st); len(got) != 1 || got[0] != 1 {
		t.Errorf("FailedProcesses: %v", got)
	}
	if got := sys.LiveProcesses(st); len(got) != 2 {
		t.Errorf("LiveProcesses: %v", got)
	}
	if !sys.FailedSet(st).Has(1) {
		t.Error("FailedSet")
	}
}

func TestApplicabilityPersistence(t *testing.T) {
	// Lemma 1: an applicable task of C stays applicable along failure-free
	// extensions that do not schedule it.
	sys := newTestSystem(t, 2, 1, service.Adversarial)
	st := sys.InitialState()
	st, _, _ = sys.Init(st, 0, "0")
	st, _, _ = sys.Init(st, 1, "1")
	st, _, _ = sys.Apply(st, ioa.ProcessTask(0)) // makes perform_0@k0 applicable

	target := ioa.PerformTask("k0", 0)
	if !sys.Applicable(st, target) {
		t.Fatal("target task should be applicable")
	}
	// Apply every other applicable task a few times; target must stay
	// applicable throughout.
	for round := 0; round < 3; round++ {
		for _, task := range sys.Tasks() {
			if task == target || !sys.Applicable(st, task) {
				continue
			}
			var err error
			st, _, err = sys.Apply(st, task)
			if err != nil {
				t.Fatal(err)
			}
			if !sys.Applicable(st, target) {
				t.Fatalf("Lemma 1 violated after %v", task)
			}
		}
	}
}

func TestFingerprintDeterminism(t *testing.T) {
	sysA := newTestSystem(t, 2, 1, service.Adversarial)
	sysB := newTestSystem(t, 2, 1, service.Adversarial)
	a, b := sysA.InitialState(), sysB.InitialState()
	if sysA.Fingerprint(a) != sysB.Fingerprint(b) {
		t.Error("initial fingerprints differ across identical systems")
	}
	a2, _, _ := sysA.Init(a, 0, "1")
	if sysA.Fingerprint(a2) == sysA.Fingerprint(a) {
		t.Error("fingerprint insensitive to init")
	}
}

func TestDeterministicReplay(t *testing.T) {
	// The same input+task sequence from the initial state yields the same
	// final fingerprint (Section 3.1: executions are determined by their
	// task sequences).
	sys := newTestSystem(t, 2, 1, service.Adversarial)
	run := func() string {
		st := sys.InitialState()
		st, _, _ = sys.Init(st, 0, "0")
		st, _, _ = sys.Init(st, 1, "1")
		for iter := 0; iter < 20; iter++ {
			for _, task := range sys.Tasks() {
				if sys.Applicable(st, task) {
					st, _, _ = sys.Apply(st, task)
				}
			}
		}
		return sys.Fingerprint(st)
	}
	if run() != run() {
		t.Error("replay diverged")
	}
}

func TestParticipants(t *testing.T) {
	sys := newTestSystem(t, 2, 1, service.Adversarial)
	st := sys.InitialState()
	st, _, _ = sys.Init(st, 0, "0")

	// Process task about to invoke: participants {P0, k0}.
	got := sys.Participants(st, ioa.ProcessTask(0))
	if len(got) != 2 || got[0] != "P0" || got[1] != "k0" {
		t.Errorf("invoke participants: %v", got)
	}
	st, _, _ = sys.Apply(st, ioa.ProcessTask(0))

	// Service perform: participant {k0} only.
	got = sys.Participants(st, ioa.PerformTask("k0", 0))
	if len(got) != 1 || got[0] != "k0" {
		t.Errorf("perform participants: %v", got)
	}
	// Idle process task: dummy step, participant {P1}.
	got = sys.Participants(st, ioa.ProcessTask(1))
	if len(got) != 1 || got[0] != "P1" {
		t.Errorf("dummy participants: %v", got)
	}
	// Non-applicable task: nil.
	if got := sys.Participants(st, ioa.OutputTask("r0", 0)); got != nil {
		t.Errorf("non-applicable participants: %v", got)
	}
}

func TestApplyErrors(t *testing.T) {
	sys := newTestSystem(t, 2, 1, service.Adversarial)
	st := sys.InitialState()
	if _, _, err := sys.Apply(st, ioa.PerformTask("zz", 0)); !errors.Is(err, ErrUnknownService) {
		t.Errorf("unknown service: %v", err)
	}
	if _, _, err := sys.Init(st, 9, "0"); !errors.Is(err, ErrUnknownProcess) {
		t.Errorf("unknown process: %v", err)
	}
	if _, _, err := sys.Fail(st, 9); !errors.Is(err, ErrUnknownProcess) {
		t.Errorf("fail unknown: %v", err)
	}
}

func TestAdversarialObjectSilencedByFailures(t *testing.T) {
	// f = 0 consensus object, 2 processes: after one failure the adversarial
	// object may (and under our policy does) stop serving the survivor.
	sys := newTestSystem(t, 2, 0, service.Adversarial)
	st := sys.InitialState()
	st, _, _ = sys.Init(st, 0, "0")
	st, _, _ = sys.Apply(st, ioa.ProcessTask(0)) // P0 invokes k0
	st, _, _ = sys.Fail(st, 1)

	act, ok := sys.Enabled(st, ioa.PerformTask("k0", 0))
	if !ok || act.Type != ioa.ActDummyPerform {
		t.Fatalf("object not silenced: %v %v", act, ok)
	}
	// The register r0 is wait-free: still serving P0.
	st, _, _ = sys.Init(st, 0, "0") // no-op for protocol; keep st used
	_ = st
}

// TestActionNumbersRunOut: a Label holds an action number in 16 bits. A task
// that has performed 65 536 distinct actions keeps resolving those, and
// numbering one more is an error of the step, not a wrapped number.
func TestActionNumbersRunOut(t *testing.T) {
	info := taskInfo{task: ioa.ProcessTask(1)}
	info.acts.Store(new([]ioa.Action))
	full := make([]ioa.Action, math.MaxUint16+1)
	for i := range full {
		full[i] = ioa.Action{Proc: i}
	}
	info.acts.Store(&full)
	for range 2 {
		if num, err := info.number(full[40000]); err != nil || num != 40000 {
			t.Fatalf("a numbered action resolved to %d, %v", num, err)
		}
		if num, err := info.number(ioa.Action{Proc: -5}); err == nil {
			t.Fatalf("action 65 537 was numbered %d", num)
		}
	}
	if got := len(*info.acts.Load()); got != len(full) {
		t.Errorf("the numbering holds %d actions, want %d", got, len(full))
	}
}
