package service

import (
	"github.com/ioa-lab/boosting/internal/codec"
	"github.com/ioa-lab/boosting/internal/seqtype"
	"github.com/ioa-lab/boosting/internal/servicetype"
)

// State is the state of a canonical service automaton: the value of the
// type, the per-endpoint invocation and response FIFO buffers, and the set
// of endpoints known to have failed (Fig. 1's val, inv-buffer, resp-buffer
// and failed components).
//
// States are immutable values: every transition returns a fresh State that
// shares whatever it did not change with the old one. The buffers are
// Buffers values, so a transition copies only the small header of the
// family it touches and the one queue it changes, never a map.
type State struct {
	Val    string
	Inv    Buffers
	Resp   Buffers
	Failed codec.IntSet
}

// InitialState returns the start state: val = the type's initial value, all
// buffers empty, no failures.
func (s *Service) InitialState() State {
	return State{Val: s.typ.Initial, Failed: codec.NewIntSet()}
}

// Fingerprint returns the canonical encoding of the state.
func (st State) Fingerprint() string {
	return string(st.AppendFingerprint(nil))
}

// AppendFingerprint appends the canonical encoding of the state to dst,
// byte-identical to Fingerprint. Exploration engines reuse one buffer across
// states, so the hot-path cost is the encoding itself, not allocation.
func (st State) AppendFingerprint(dst []byte) []byte {
	dst = append(dst, '[')
	dst = codec.AppendWrapped(dst, func(d []byte) []byte {
		return codec.AppendAtom(d, st.Val)
	})
	dst = codec.AppendWrapped(dst, st.Inv.appendFingerprint)
	dst = codec.AppendWrapped(dst, st.Resp.appendFingerprint)
	dst = codec.AppendWrapped(dst, st.Failed.AppendFingerprint)
	return append(dst, ']')
}

// applyResponses appends every response in rm to the corresponding response
// buffers.
func applyResponses(resp Buffers, rm servicetype.ResponseMap) Buffers {
	for _, i := range rm.Endpoints() {
		resp = resp.pushed(i, rm.Responses(i)...)
	}
	return resp
}

// PendingInvocations returns the invocation buffer of endpoint i (shared
// slice; do not modify).
func (st State) PendingInvocations(i int) []string { return st.Inv.Queue(i) }

// PendingResponses returns the response buffer of endpoint i (shared slice;
// do not modify).
func (st State) PendingResponses(i int) []string { return st.Resp.Queue(i) }

// registerSeqType builds the read/write sequential type used by canonical
// registers, defaulting the value set when empty.
func registerSeqType(values []string, initial string) *seqtype.Type {
	if len(values) == 0 {
		values = []string{initial}
	}
	return seqtype.ReadWrite(values, initial)
}
