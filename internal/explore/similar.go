package explore

import (
	"slices"

	"github.com/ioa-lab/boosting/internal/ioa"
	"github.com/ioa-lab/boosting/internal/system"
)

// JSimilar reports whether two system states are j-similar (Section 3.5):
// every process other than P_j has the same state, and every service has the
// same value and, for endpoints other than j, the same buffers.
func JSimilar(sys *system.System, s0, s1 system.State, j int) bool {
	for slot, i := range sys.ProcessIDs() {
		if i != j && s0.ProcEncoding(slot) != s1.ProcEncoding(slot) {
			return false
		}
	}
	for slot, c := range sys.ServiceIDs() {
		sv := sys.Service(c)
		st0, st1 := s0.Svc(slot), s1.Svc(slot)
		if st0.Val != st1.Val {
			return false
		}
		for _, i := range sv.Endpoints() {
			if i == j {
				continue
			}
			if !slices.Equal(st0.Inv.Queue(i), st1.Inv.Queue(i)) || !slices.Equal(st0.Resp.Queue(i), st1.Resp.Queue(i)) {
				return false
			}
		}
	}
	return true
}

// KSimilar reports whether two system states are k-similar (Section 3.5):
// every process has the same state, and every service other than S_k has the
// same state.
func KSimilar(sys *system.System, s0, s1 system.State, k string) bool {
	for slot := range sys.ProcessIDs() {
		if s0.ProcEncoding(slot) != s1.ProcEncoding(slot) {
			return false
		}
	}
	for slot, c := range sys.ServiceIDs() {
		if c == k {
			continue
		}
		if s0.SvcEncoding(slot) != s1.SvcEncoding(slot) {
			return false
		}
	}
	return true
}

// SomeSimilarity searches for any j ∈ I or k ∈ K making the two states
// similar, returning a description of the first found ("P<j>" or the
// service index) and whether one exists. Lemma 8's argument starts from the
// observation that the two univalent ends of a hook can be similar in *no*
// way.
func SomeSimilarity(sys *system.System, s0, s1 system.State) (string, bool) {
	for _, j := range sys.ProcessIDs() {
		if JSimilar(sys, s0, s1, j) {
			return procLabel(j), true
		}
	}
	for _, k := range sys.ServiceIDs() {
		if KSimilar(sys, s0, s1, k) {
			return k, true
		}
	}
	return "", false
}

func procLabel(j int) string {
	return ioa.ProcessTask(j).String()
}

// TasksCommute checks whether applying e then e′ from st reaches the same
// state as e′ then e (the commutativity used throughout Lemma 8's claims).
// It returns false if either order is not applicable.
func TasksCommute(sys *system.System, st system.State, e, ePrime ioa.Task) bool {
	a1, _, err1 := sys.Apply(st, e)
	if err1 != nil {
		return false
	}
	a2, _, err2 := sys.Apply(a1, ePrime)
	if err2 != nil {
		return false
	}
	b1, _, err3 := sys.Apply(st, ePrime)
	if err3 != nil {
		return false
	}
	b2, _, err4 := sys.Apply(b1, e)
	if err4 != nil {
		return false
	}
	return a2.Equal(b2)
}

// ParticipantsDisjoint reports whether the participant sets of the actions
// that e and e′ would take from st are disjoint (Claim 2 of Lemma 8: tasks
// with disjoint participants commute).
func ParticipantsDisjoint(sys *system.System, st system.State, e, ePrime ioa.Task) bool {
	pa := sys.Participants(st, e)
	pb := sys.Participants(st, ePrime)
	if pa == nil || pb == nil {
		return false
	}
	in := make(map[string]bool, len(pa))
	for _, p := range pa {
		in[p] = true
	}
	for _, p := range pb {
		if in[p] {
			return false
		}
	}
	return true
}
