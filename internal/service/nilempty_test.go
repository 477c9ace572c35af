package service

// Regression tests for empty buffer handling: a service state whose buffers
// were never filled, were built from nil or empty queues, or were filled and
// drained must encode — and therefore intern — identically. Buffers keeps
// only non-empty queues (With dropping emptied ones); these tests pin it
// against regressions.

import (
	"testing"

	"github.com/ioa-lab/boosting/internal/codec"
	"github.com/ioa-lab/boosting/internal/ioa"
	"github.com/ioa-lab/boosting/internal/seqtype"
	"github.com/ioa-lab/boosting/internal/servicetype"
)

func TestNilVsEmptyBuffersEncodeIdentically(t *testing.T) {
	variants := []State{
		{Val: "v"},
		{Val: "v", Inv: bufs(map[int][]string{1: nil}), Resp: bufs(map[int][]string{2: {}})},
		{Val: "v", Inv: bufs(map[int][]string{1: {}, 3: nil}), Failed: codec.NewIntSet()},
		{Val: "v", Inv: bufs(map[int][]string{1: {"x"}}).With(1, nil), Resp: bufs(map[int][]string{2: {"y"}}).With(2, []string{})},
	}
	want := variants[0].Fingerprint()
	for i, st := range variants {
		if got := st.Fingerprint(); got != want {
			t.Errorf("variant %d encodes %q, want %q", i, got, want)
		}
		if got := string(st.AppendFingerprint(nil)); got != want {
			t.Errorf("variant %d append-encodes %q, want %q", i, got, want)
		}
	}
}

// TestEmptiedBufferMatchesFresh: a buffer that was filled and fully drained
// encodes identically to one that was never touched.
func TestEmptiedBufferMatchesFresh(t *testing.T) {
	rw := servicetype.FromSequential(seqtype.ReadWrite([]string{"", "x"}, ""))
	svc, err := NewWaitFree("r", rw, []int{0, 1}, Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	fresh := svc.InitialState()
	st, err := svc.Invoke(fresh, 0, seqtype.Write("x"))
	if err != nil {
		t.Fatal(err)
	}
	// Drain: perform the write, then emit the ack.
	st, _, err = svc.Apply(st, ioa.PerformTask("r", 0))
	if err != nil {
		t.Fatal(err)
	}
	st, _, err = svc.Apply(st, ioa.OutputTask("r", 0))
	if err != nil {
		t.Fatal(err)
	}
	drained := State{Val: st.Val, Inv: st.Inv, Resp: st.Resp, Failed: st.Failed}
	ref := State{Val: "x", Failed: codec.NewIntSet()}
	if drained.Fingerprint() != ref.Fingerprint() {
		t.Errorf("drained state %q, fresh-style state %q", drained.Fingerprint(), ref.Fingerprint())
	}
}
