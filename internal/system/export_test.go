package system

import (
	"github.com/ioa-lab/boosting/internal/ioa"
	"github.com/ioa-lab/boosting/internal/process"
	"github.com/ioa-lab/boosting/internal/service"
)

// ComponentStates returns the process and service component states of st in
// the system's fixed component order, in freshly allocated slices — the read
// face of StateOf, for the reference implementations the tests compare
// against.
func (s *System) ComponentStates(st State) ([]process.State, []service.State) {
	procs := make([]process.State, len(st.procs))
	for i, c := range st.procs {
		procs[i] = c.st
	}
	svcs := make([]service.State, len(st.svcs))
	for i, c := range st.svcs {
		svcs[i] = c.st
	}
	return procs, svcs
}

// CellIndices returns, per process slot and per service slot of the component
// order, the dense index of every interned cell by its encoding.
func (s *System) CellIndices() (procs, svcs []map[string]uint32) {
	for i := range s.procSlots {
		sl := &s.procSlots[i]
		sl.mu.Lock()
		m := make(map[string]uint32, len(sl.m))
		for enc, c := range sl.m {
			m[enc] = c.idx
		}
		sl.mu.Unlock()
		procs = append(procs, m)
	}
	for i := range s.svcSlots {
		sl := &s.svcSlots[i]
		sl.mu.Lock()
		m := make(map[string]uint32, len(sl.m))
		for enc, c := range sl.m {
			m[enc] = c.idx
		}
		sl.mu.Unlock()
		svcs = append(svcs, m)
	}
	return procs, svcs
}

// TaskActions returns, per task of Tasks(), the actions the task has performed
// so far in the order they were numbered.
func (s *System) TaskActions() [][]ioa.Action {
	out := make([][]ioa.Action, len(s.table))
	for t := range s.table {
		out[t] = *s.table[t].acts.Load()
	}
	return out
}
