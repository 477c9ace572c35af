package explore

import (
	"fmt"
	"strings"

	"github.com/ioa-lab/boosting/internal/system"
)

// InitClassification reports the Lemma 4 analysis: the n+1 monotone
// initializations α_0 … α_n (in α_i, processes P_1 … P_i receive 1 and the
// rest receive 0), their valences, and the index of a bivalent one if any.
type InitClassification struct {
	// Assignments[i] is the input map of α_i.
	Assignments []map[int]string
	// Roots[i] is the vertex of the state after α_i.
	Roots []StateID
	// Valences[i] is the valence of α_i.
	Valences []Valence
	// BivalentIndex is the first i with bivalent α_i, or -1.
	BivalentIndex int
	// Graph is the shared failure-free graph from all roots.
	Graph *Graph
}

// Close releases the classification's graph (the spill backend holds a
// file descriptor per open graph). Nil-tolerant on the receiver and the
// graph, so `defer c.Close()` is safe straight after the error check.
func (c *InitClassification) Close() error {
	if c == nil {
		return nil
	}
	return CloseGraphStore(c.Graph)
}

// MonotoneAssignment returns the input assignment of α_i: the first i
// processes (in id order) receive "1", the rest "0".
func MonotoneAssignment(sys *system.System, i int) map[int]string {
	return assignment(sys, func(idx int) bool { return idx < i })
}

// assignment gives the process at position idx (in id order) input "1"
// when one(idx) holds, and "0" otherwise.
func assignment(sys *system.System, one func(idx int) bool) map[int]string {
	ids := sys.ProcessIDs()
	out := make(map[int]string, len(ids))
	for idx, id := range ids {
		out[id] = "0"
		if one(idx) {
			out[id] = "1"
		}
	}
	return out
}

// ApplyInputs delivers an input assignment to a fresh initial state (an
// initialization in the paper's sense: exactly one init per process, no
// other actions), yielding the root the input-first executions grow from.
func ApplyInputs(sys *system.System, inputs map[int]string) (system.State, error) {
	r := newRunner(sys, inputs, false)
	if err := r.deliverInputs(); err != nil {
		return system.State{}, err
	}
	return r.st, nil
}

// monotoneRoots starts a classification: the n+1 monotone assignments and
// the root states they lead to.
func monotoneRoots(sys *system.System) (*InitClassification, []system.State, error) {
	n := len(sys.ProcessIDs())
	out := &InitClassification{BivalentIndex: -1}
	var roots []system.State
	for i := 0; i <= n; i++ {
		inputs := MonotoneAssignment(sys, i)
		st, err := ApplyInputs(sys, inputs)
		if err != nil {
			return nil, nil, err
		}
		out.Assignments = append(out.Assignments, inputs)
		roots = append(roots, st)
	}
	return out, roots, nil
}

// classify finishes a classification from g, whose roots are the monotone
// roots in order.
func (c *InitClassification) classify(g *Graph) *InitClassification {
	c.Graph = g
	c.Roots = g.Roots()
	for i, id := range c.Roots {
		v := g.Valence(id)
		c.Valences = append(c.Valences, v)
		if v == Bivalent && c.BivalentIndex < 0 {
			c.BivalentIndex = i
		}
	}
	return c
}

// ClassifyInits performs the Lemma 4 sweep over the monotone
// initializations and classifies each by valence.
func ClassifyInits(sys *system.System, opt BuildOptions) (*InitClassification, error) {
	out, roots, err := monotoneRoots(sys)
	if err != nil {
		return nil, err
	}
	g, err := BuildGraph(sys, roots, opt)
	if err != nil {
		return nil, err
	}
	return out.classify(g), nil
}

// String renders the classification as a small table.
func (c *InitClassification) String() string {
	var b strings.Builder
	for i, v := range c.Valences {
		fmt.Fprintf(&b, "α_%d (%s): %s\n", i, fmtAssignment(c.Assignments[i]), v)
	}
	if c.BivalentIndex >= 0 {
		fmt.Fprintf(&b, "bivalent initialization: α_%d\n", c.BivalentIndex)
	} else {
		b.WriteString("no bivalent initialization\n")
	}
	return b.String()
}

// AllAssignments enumerates every input assignment in {0,1}^n (used by the
// exhaustive safety sweep; n is small in exploration systems).
func AllAssignments(sys *system.System) []map[int]string {
	n := len(sys.ProcessIDs())
	out := make([]map[int]string, 0, 1<<n)
	for bits := 0; bits < 1<<n; bits++ {
		out = append(out, assignment(sys, func(idx int) bool { return bits&(1<<idx) != 0 }))
	}
	return out
}
