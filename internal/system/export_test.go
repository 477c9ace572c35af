package system

import (
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
