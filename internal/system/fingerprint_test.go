package system

import (
	"strconv"
	"testing"

	"github.com/ioa-lab/boosting/internal/allocpin"
	"github.com/ioa-lab/boosting/internal/codec"
	"github.com/ioa-lab/boosting/internal/ioa"
	"github.com/ioa-lab/boosting/internal/process"
	"github.com/ioa-lab/boosting/internal/service"
)

// referenceProcessFingerprint is the original string-builder composition of
// the process state encoding, kept here to pin the append-based hot path to
// the stable external format byte for byte.
func referenceProcessFingerprint(st process.State) string {
	outbox := make([]string, len(st.Outbox))
	for i, o := range st.Outbox {
		outbox[i] = codec.List([]string{strconv.Itoa(int(o.Kind)), o.Service, o.Payload})
	}
	flags := ""
	if st.HasDec {
		flags += "d"
	}
	if st.DecideQueued {
		flags += "q"
	}
	if st.Failed {
		flags += "f"
	}
	return codec.List([]string{
		codec.Map(st.Vars),
		codec.List(outbox),
		codec.Atom(st.Decided),
		codec.Atom(flags),
	})
}

// referenceServiceFingerprint mirrors the original service state encoding of
// a service with the given endpoints.
func referenceServiceFingerprint(st service.State, endpoints []int) string {
	inv, resp := map[int][]string{}, map[int][]string{}
	for _, i := range endpoints {
		inv[i], resp[i] = st.Inv.Queue(i), st.Resp.Queue(i)
	}
	return codec.List([]string{
		codec.Atom(st.Val),
		referenceBuffers(inv),
		referenceBuffers(resp),
		st.Failed.Fingerprint(),
	})
}

// referenceBuffers is the original encoding of a buffer family, from the map
// the family used to be.
func referenceBuffers(buf map[int][]string) string {
	m := make(map[string]string, len(buf))
	for i, items := range buf {
		if len(items) == 0 {
			continue
		}
		m[strconv.Itoa(i)] = codec.List(items)
	}
	return codec.Map(m)
}

// TestFingerprintFormatStable walks real states of a composed system through
// inits, steps and failures and checks that every component fingerprint (and
// the system concatenation) matches the legacy string-builder composition.
// The interned graph keys, witness output and on-disk formats all ride on
// this stability.
func TestFingerprintFormatStable(t *testing.T) {
	sys := newTestSystem(t, 3, 1, service.Adversarial)
	st := sys.InitialState()
	check := func(label string) {
		t.Helper()
		want := ""
		for _, id := range sys.ProcessIDs() {
			ps := sys.ProcState(st, id)
			ref := referenceProcessFingerprint(ps)
			if got := ps.Fingerprint(); got != ref {
				t.Fatalf("%s: P%d fingerprint drifted:\n got  %q\n want %q", label, id, got, ref)
			}
			want += ref
		}
		for _, k := range sys.ServiceIDs() {
			ss := sys.SvcState(st, k)
			ref := referenceServiceFingerprint(ss, sys.Service(k).Endpoints())
			if got := ss.Fingerprint(); got != ref {
				t.Fatalf("%s: %s fingerprint drifted:\n got  %q\n want %q", label, k, got, ref)
			}
			want += ref
		}
		if got := sys.Fingerprint(st); got != want {
			t.Fatalf("%s: system fingerprint is not the component concatenation", label)
		}
		if got := string(sys.AppendFingerprint(nil, st)); got != want {
			t.Fatalf("%s: AppendFingerprint differs from Fingerprint", label)
		}
	}
	check("initial")
	var err error
	st, _, err = sys.Init(st, 0, "1")
	if err != nil {
		t.Fatal(err)
	}
	st, _, err = sys.Init(st, 1, "0")
	if err != nil {
		t.Fatal(err)
	}
	check("after inits")
	for round := 0; round < 4; round++ {
		for _, task := range sys.Tasks() {
			if !sys.Applicable(st, task) {
				continue
			}
			st, _, err = sys.Apply(st, task)
			if err != nil {
				t.Fatal(err)
			}
			check("after " + task.String())
		}
	}
	st, _, err = sys.Fail(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	check("after fail_2")
}

// TestAppendFingerprintReusesBuffer pins the hot-path allocation contract:
// with a warm buffer, re-encoding a state must not allocate per call beyond
// component-internal scratch (map key sorting).
func TestAppendFingerprintReusesBuffer(t *testing.T) {
	sys := newTestSystem(t, 2, 1, service.Adversarial)
	st := sys.InitialState()
	st, _, _ = sys.Init(st, 0, "1")
	st, _, _ = sys.Apply(st, ioa.ProcessTask(0))
	buf := make([]byte, 0, 4096)
	buf = sys.AppendFingerprint(buf, st) // warm up capacity
	// The variable maps of this protocol are empty or tiny, so the whole
	// encoding should be allocation-free once the buffer has capacity.
	allocpin.Check(t, "AppendFingerprint", 100, 0, func() {
		buf = sys.AppendFingerprint(buf[:0], st)
	})
}
