package system

import (
	"fmt"

	"github.com/ioa-lab/boosting/internal/codec"
	"github.com/ioa-lab/boosting/internal/process"
	"github.com/ioa-lab/boosting/internal/service"
)

// ParseFingerprint reconstructs a system state from its canonical encoding —
// the inverse of Fingerprint/AppendFingerprint. The component encodings are
// self-delimiting, so the concatenated system fingerprint splits back into
// one process state per process (ascending id order) and one service state
// per service (sorted index order) with no separators.
//
// Each component is found by scanning its frame for the boundary and looking
// the consumed substring up in the slot's cell table; a hit is a state this
// System has already interned, so nothing is decoded. Only a miss runs the
// component decoder, which validates the bytes and interns the result under
// its re-encoding — so a malformed input is rejected exactly as the
// component decoders reject it, whatever the tables hold.
//
// Every fingerprint this system produced decodes, and re-encoding the
// decoded state is byte-identical (the round-trip contract the disk-spilling
// StateStore backend is built on: spilled vertices persist only their
// fingerprints and are decoded on demand). Inputs that are not canonical
// encodings return an error wrapping codec.ErrMalformed.
func (s *System) ParseFingerprint(fp string) (State, error) {
	st := State{
		procs: make([]*procCell, len(s.procSlots)),
		svcs:  make([]*svcCell, len(s.svcSlots)),
	}
	rest := fp
	for i := range st.procs {
		sl := &s.procSlots[i]
		if n := process.StatePrefixLen(rest); n > 0 {
			if c := sl.get(rest[:n]); c != nil {
				st.procs[i], rest = c, rest[n:]
				continue
			}
		}
		ps, r, err := process.ParseStatePrefix(rest)
		if err != nil {
			return State{}, fmt.Errorf("system: decode P%d: %w", s.procIDs[i], err)
		}
		st.procs[i], rest = sl.intern(ps), r
	}
	for i := range st.svcs {
		sl := &s.svcSlots[i]
		if n := service.StatePrefixLen(rest); n > 0 {
			if c := sl.get(rest[:n]); c != nil {
				st.svcs[i], rest = c, rest[n:]
				continue
			}
		}
		ss, r, err := service.ParseStatePrefix(rest)
		if err != nil {
			return State{}, fmt.Errorf("system: decode service %s: %w", s.svcIDs[i], err)
		}
		st.svcs[i], rest = sl.intern(ss), r
	}
	if rest != "" {
		return State{}, fmt.Errorf("system: %w: %d trailing bytes after state encoding", codec.ErrMalformed, len(rest))
	}
	return st, nil
}
