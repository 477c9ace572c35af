package service

import (
	"fmt"

	"github.com/ioa-lab/boosting/internal/ioa"
)

// Invoke applies the input action a_{i,k}: endpoint i submits invocation inv,
// which is appended to inv-buffer(i). Per the canonical automata (Figs. 1,
// 4, 8), invocations are accepted unconditionally — input-enabledness — even
// from failed endpoints; resilience shows up only in whether the service
// keeps performing.
func (s *Service) Invoke(st State, i int, inv string) (State, error) {
	if !s.HasEndpoint(i) {
		return st, fmt.Errorf("%w: process %d, service %s", ErrNotEndpoint, i, s.index)
	}
	if s.typ.IsInv == nil || !s.typ.IsInv(inv) {
		return st, fmt.Errorf("%w: %q at service %s", ErrBadInvocation, inv, s.index)
	}
	return State{
		Val:    st.Val,
		Inv:    st.Inv.pushed(i, inv),
		Resp:   st.Resp,
		Failed: st.Failed,
	}, nil
}

// Fail applies the input action fail_i. Failing a non-endpoint is a no-op
// (the action is not in this service's signature).
func (s *Service) Fail(st State, i int) State {
	if !s.HasEndpoint(i) {
		return st
	}
	return State{Val: st.Val, Inv: st.Inv, Resp: st.Resp, Failed: st.Failed.With(i)}
}

// dummyEnabled reports whether the dummy action of an i-perform or i-output
// task is enabled: i ∈ failed ∨ |failed| > f (Fig. 1).
func (s *Service) dummyEnabled(st State, i int) bool {
	return st.Failed.Has(i) || st.Failed.Len() > s.resilience
}

// dummyComputeEnabled reports whether a dummy_compute action is enabled:
// |failed| > f ∨ all endpoints failed (Fig. 4).
func (s *Service) dummyComputeEnabled(st State) bool {
	if st.Failed.Len() > s.resilience {
		return true
	}
	for _, i := range s.endpoints {
		if !st.Failed.Has(i) {
			return false
		}
	}
	return true
}

// Enabled returns the unique action that the given task would perform in
// state st, or ok = false if the task has no enabled action (is not
// applicable). Determinism between a real and an enabled dummy action is
// resolved by the service's SilencePolicy.
func (s *Service) Enabled(st State, task ioa.Task) (ioa.Action, bool) {
	if task.Service != s.index {
		return ioa.Action{}, false
	}
	switch task.Kind {
	case ioa.TaskPerform:
		if !s.HasEndpoint(task.Proc) {
			return ioa.Action{}, false
		}
		real := len(st.Inv.Queue(task.Proc)) > 0
		dummy := s.dummyEnabled(st, task.Proc)
		return s.choose(
			real, ioa.Action{Type: ioa.ActPerform, Proc: task.Proc, Service: s.index},
			dummy, ioa.Action{Type: ioa.ActDummyPerform, Proc: task.Proc, Service: s.index},
		)
	case ioa.TaskOutput:
		if !s.HasEndpoint(task.Proc) {
			return ioa.Action{}, false
		}
		resp := st.Resp.Queue(task.Proc)
		real := len(resp) > 0
		var realAct ioa.Action
		if real {
			realAct = ioa.Action{Type: ioa.ActRespond, Proc: task.Proc, Service: s.index, Payload: resp[0]}
		}
		dummy := s.dummyEnabled(st, task.Proc)
		return s.choose(
			real, realAct,
			dummy, ioa.Action{Type: ioa.ActDummyOutput, Proc: task.Proc, Service: s.index},
		)
	case ioa.TaskCompute:
		if !s.hasGlobal(task.Global) {
			return ioa.Action{}, false
		}
		// δ2 is total, so the real compute action is always enabled.
		return s.choose(
			true, ioa.Action{Type: ioa.ActCompute, Service: s.index, Proc: ioa.NoProc, Payload: task.Global},
			s.dummyComputeEnabled(st), ioa.Action{Type: ioa.ActDummyCompute, Service: s.index, Proc: ioa.NoProc, Payload: task.Global},
		)
	default:
		return ioa.Action{}, false
	}
}

// choose resolves the real/dummy choice per the silence policy.
func (s *Service) choose(real bool, realAct ioa.Action, dummy bool, dummyAct ioa.Action) (ioa.Action, bool) {
	switch {
	case real && dummy:
		if s.policy == Benign {
			return realAct, true
		}
		return dummyAct, true
	case real:
		return realAct, true
	case dummy:
		return dummyAct, true
	default:
		return ioa.Action{}, false
	}
}

func (s *Service) hasGlobal(g string) bool {
	for _, have := range s.typ.Glob {
		if have == g {
			return true
		}
	}
	return false
}

// Apply runs the given task from st, returning the successor state and the
// action taken. It returns ErrTaskNotEnabled if the task is not applicable
// and ErrForeignTask if the task belongs to another automaton.
func (s *Service) Apply(st State, task ioa.Task) (State, ioa.Action, error) {
	if task.Service != s.index {
		return st, ioa.Action{}, fmt.Errorf("%w: %v at service %s", ErrForeignTask, task, s.index)
	}
	act, ok := s.Enabled(st, task)
	if !ok {
		return st, ioa.Action{}, fmt.Errorf("%w: %v", ErrTaskNotEnabled, task)
	}
	switch act.Type {
	case ioa.ActPerform:
		inv, head, popOK := st.Inv.popped(task.Proc)
		if !popOK {
			return st, ioa.Action{}, fmt.Errorf("%w: empty inv-buffer for %v", ErrTaskNotEnabled, task)
		}
		rm, newVal := s.typ.Delta1(head, task.Proc, st.Val, st.Failed)
		return State{
			Val:    newVal,
			Inv:    inv,
			Resp:   applyResponses(st.Resp, rm),
			Failed: st.Failed,
		}, act, nil
	case ioa.ActRespond:
		resp, _, popOK := st.Resp.popped(task.Proc)
		if !popOK {
			return st, ioa.Action{}, fmt.Errorf("%w: empty resp-buffer for %v", ErrTaskNotEnabled, task)
		}
		return State{Val: st.Val, Inv: st.Inv, Resp: resp, Failed: st.Failed}, act, nil
	case ioa.ActCompute:
		rm, newVal := s.typ.Delta2(task.Global, st.Val, st.Failed)
		return State{
			Val:    newVal,
			Inv:    st.Inv,
			Resp:   applyResponses(st.Resp, rm),
			Failed: st.Failed,
		}, act, nil
	case ioa.ActDummyPerform, ioa.ActDummyOutput, ioa.ActDummyCompute:
		// Dummy actions change nothing: they exist so the task stays fair
		// while the service is permitted to be silent.
		return st, act, nil
	default:
		return st, ioa.Action{}, fmt.Errorf("%w: unexpected action %v", ErrTaskNotEnabled, act)
	}
}
