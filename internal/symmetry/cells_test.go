package symmetry_test

// Tests of the cell-based pure-spec path: its slot order against the sort key
// it used to materialise, its allocation profile, and its behaviour on cells
// of another System and under concurrent use.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/ioa-lab/boosting/internal/allocpin"
	"github.com/ioa-lab/boosting/internal/codec"
	"github.com/ioa-lab/boosting/internal/explore"
	"github.com/ioa-lab/boosting/internal/ioa"
	"github.com/ioa-lab/boosting/internal/process"
	"github.com/ioa-lab/boosting/internal/protocols"
	"github.com/ioa-lab/boosting/internal/service"
	"github.com/ioa-lab/boosting/internal/symmetry"
	"github.com/ioa-lab/boosting/internal/system"
)

func buildForward(tb testing.TB, n int, policy service.SilencePolicy) *system.System {
	tb.Helper()
	sys, err := protocols.BuildForward(n, 0, policy)
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// assertOrderMatchesKey holds the piecewise order of every slot pair of st
// equal to bytes.Compare on the concatenated keys.
func assertOrderMatchesKey(t *testing.T, canon *symmetry.Canonicalizer, st system.State, slots int) {
	t.Helper()
	keys := make([][]byte, slots)
	for slot := range keys {
		keys[slot] = canon.KeyForTest(st, slot)
	}
	for a := range keys {
		for b := range keys {
			want := bytes.Compare(keys[a], keys[b]) < 0
			if got := canon.LessForTest(st, a, b); got != want {
				t.Fatalf("slot %d before slot %d: piecewise order says %v, concatenated keys say %v\n%q\n%q",
					a, b, got, want, keys[a], keys[b])
			}
		}
	}
}

// TestPiecewiseOrderMatchesKeyOracle: comparing ProcEncoding and then the
// cached endpoint pieces one by one orders slots exactly as bytes.Compare
// orders the keys the path used to build by concatenating those pieces —
// over every vertex of the pure-spec quotients and every successor the
// engine hands Canonical while building them.
func TestPiecewiseOrderMatchesKeyOracle(t *testing.T) {
	type family struct {
		name string
		sys  *system.System
		spec symmetry.Spec
	}
	var fams []family
	for n := 3; n <= 5; n++ {
		fams = append(fams, family{fmt.Sprintf("forward-n%d", n), buildForward(t, n, service.Adversarial), protocols.ForwardSymmetry(n)})
	}
	sb, err := protocols.BuildSetBoost(2)
	if err != nil {
		t.Fatal(err)
	}
	fams = append(fams, family{"setboost-n2", sb, protocols.SetBoostSymmetry(2)})
	for _, fam := range fams {
		t.Run(fam.name, func(t *testing.T) {
			canon, g := quotient(t, fam.sys, fam.spec)
			slots := len(fam.sys.ProcessIDs())
			checked := 0
			for id := 0; id < g.Size(); id++ {
				st, _ := g.State(explore.StateID(id))
				assertOrderMatchesKey(t, canon, st, slots)
				for _, task := range fam.sys.Tasks() {
					if !fam.sys.Applicable(st, task) {
						continue
					}
					succ, _, err := fam.sys.Apply(st, task)
					if err != nil {
						t.Fatal(err)
					}
					assertOrderMatchesKey(t, canon, succ, slots)
					checked++
				}
			}
			if checked != g.Edges() {
				t.Fatalf("checked %d successors, the quotient has %d edges", checked, g.Edges())
			}
		})
	}
}

// fuzzState builds a forward n=3 state whose processes are all in the same
// component state — so the slot order is decided by the service pieces alone
// — and whose consensus object k0 holds the given queues: per endpoint, the
// items of the invocation and response queue, NUL-separated ("" = nothing
// queued), and a failed mark per bit of failed.
func fuzzState(sys *system.System, inv, resp [3]string, failed uint8) (system.State, error) {
	init := sys.InitialState()
	procs := make([]process.State, len(sys.ProcessIDs()))
	for slot := range procs {
		procs[slot] = init.Proc(0)
	}
	svcs := make([]service.State, len(sys.ServiceIDs()))
	for slot := range svcs {
		svcs[slot] = init.Svc(slot)
	}
	k0 := service.State{Val: svcs[0].Val}
	var down []int
	for id := range inv {
		if inv[id] != "" {
			k0.Inv = k0.Inv.With(id, strings.Split(inv[id], "\x00"))
		}
		if resp[id] != "" {
			k0.Resp = k0.Resp.With(id, strings.Split(resp[id], "\x00"))
		}
		if failed&(1<<id) != 0 {
			down = append(down, id)
		}
	}
	k0.Failed = codec.NewIntSet(down...)
	svcs[0] = k0
	return sys.StateOf(procs, svcs)
}

// FuzzPiecewiseOrder holds the piecewise order equal to the concatenated-key
// order on arbitrary queue contents. The seeds are attempts to make one
// piece a proper prefix of another or to smuggle a delimiter: were any piece
// not self-delimiting, the concatenation would compare bytes of the *next*
// piece where the piecewise order has already decided.
func FuzzPiecewiseOrder(f *testing.F) {
	f.Add("a", "a\x00b", "", "", "", "", uint8(0))
	f.Add("a", "a", "a", "x", "x\x00", "", uint8(0))
	f.Add("1:a]", "1:a", "]", "", "", "", uint8(0))
	f.Add("", "", "", "[]", "[", "]", uint8(5))
	f.Add("init(0)", "init(0)", "", "", "decide(1)", "decide(1)\x00decide(1)", uint8(2))
	f.Add("[1:a][1:b]", "[1:a]", "[1:b]", ".", "F", "", uint8(7))
	f.Add("\x00", "\x00\x00", "", "2:[]", "", "2:[]F", uint8(1))
	sys := buildForward(f, 3, service.Adversarial)
	canon, err := symmetry.New(sys, protocols.ForwardSymmetry(3))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, inv0, inv1, inv2, resp0, resp1, resp2 string, failed uint8) {
		st, err := fuzzState(sys, [3]string{inv0, inv1, inv2}, [3]string{resp0, resp1, resp2}, failed)
		if err != nil {
			t.Fatal(err)
		}
		assertOrderMatchesKey(t, canon, st, 3)
		// And the order is put to use consistently: the canonical form of the
		// state is the canonical form of any renaming of it.
		want := sys.Fingerprint(canon.Canonical(st))
		for _, perm := range []map[int]int{{0: 1, 1: 0}, {0: 1, 1: 2, 2: 0}} {
			if got := sys.Fingerprint(canon.Canonical(canon.PermuteForTest(st, perm))); got != want {
				t.Fatalf("renaming %v changed the canonical form:\n%q\n%q", perm, got, want)
			}
		}
	})
}

// TestCanonicalAllocs pins what the cell-based path allocates: nothing for a
// state that is already canonical, and for a renaming onto cells the System
// holds only the two pointer slices of the resulting State.
func TestCanonicalAllocs(t *testing.T) {
	const n = 4
	sys := buildForward(t, n, service.Adversarial)
	canon, g := quotient(t, sys, protocols.ForwardSymmetry(n))
	identityFps, renamedFps := successors(t, sys, canon, g)
	if len(identityFps) == 0 || len(renamedFps) == 0 {
		t.Fatalf("%d canonical and %d renamed successors; need both", len(identityFps), len(renamedFps))
	}
	identity, renamed := decode(t, sys, identityFps), decode(t, sys, renamedFps)
	allocpin.Check(t, fmt.Sprintf("canonicalizing %d canonical states", len(identity)), 5, 0, func() {
		for _, st := range identity {
			sink = canon.Canonical(st)
		}
	})
	if raceEnabled {
		// sync.Pool drops buffers at random under the race detector, so the
		// pooled encode buffer is re-allocated now and then.
		return
	}
	// At most the two pointer slices of each result.
	allocpin.Check(t, fmt.Sprintf("renaming %d successors onto interned cells", len(renamed)), 5, float64(2*len(renamed)), func() {
		for _, st := range renamed {
			sink = canon.Canonical(st)
		}
	})
}

// TestCanonicalForeignCells: a state decoded by one System (the
// benign-policy base) is canonicalized by the Canonicalizer of another (the
// adversarial variant). The cached endpoint index it reads off
// the foreign cells depends on their encoding alone, so the result must be
// what canonicalizing the variant's own decoding of the same fingerprint
// gives.
func TestCanonicalForeignCells(t *testing.T) {
	const n = 4
	base, variant := buildForward(t, n, service.Benign), buildForward(t, n, service.Adversarial)
	canon, g := quotient(t, variant, protocols.ForwardSymmetry(n))
	identityFps, renamedFps := successors(t, variant, canon, g)
	// A second variant System answers the reference side, so the foreign
	// cells are the first this Canonicalizer's System sees of each state.
	fresh := buildForward(t, n, service.Adversarial)
	freshCanon, err := symmetry.New(fresh, protocols.ForwardSymmetry(n))
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range append(identityFps, renamedFps...) {
		foreign, err := base.ParseFingerprint(fp)
		if err != nil {
			t.Fatal(err)
		}
		own, err := variant.ParseFingerprint(fp)
		if err != nil {
			t.Fatal(err)
		}
		want := variant.Fingerprint(canon.Canonical(own))
		if got := fresh.Fingerprint(freshCanon.Canonical(foreign)); got != want {
			t.Fatalf("canonical form of foreign cells differs:\n%q\n%q", got, want)
		}
		// The result is usable by the canonicalizing System: every cell a
		// transition consults is re-homed.
		got, ref := freshCanon.Canonical(foreign), canon.Canonical(own)
		for _, task := range fresh.Tasks() {
			if fresh.Applicable(got, task) != variant.Applicable(ref, task) {
				t.Fatalf("task %v applicable differs on the foreign-cell result", task)
			}
		}
	}
}

// TestConcurrentCanonical canonicalizes the same frontier from four
// goroutines on one fresh System — so they race to build the same cells'
// endpoint indexes and to intern the same renamed cells — and compares every
// result with a serial run on another instance. Run with -race -count=5
// (make race).
func TestConcurrentCanonical(t *testing.T) {
	const n, goroutines = 4, 4
	serial := buildForward(t, n, service.Adversarial)
	canon, g := quotient(t, serial, protocols.ForwardSymmetry(n))
	identityFps, renamedFps := successors(t, serial, canon, g)
	fps := append(identityFps, renamedFps...)
	want := make([]string, len(fps))
	for i, st := range decode(t, serial, fps) {
		want[i] = serial.Fingerprint(canon.Canonical(st))
	}

	shared := buildForward(t, n, service.Adversarial)
	sharedCanon, err := symmetry.New(shared, protocols.ForwardSymmetry(n))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, fp := range fps {
				st, err := shared.ParseFingerprint(fp)
				if err != nil {
					t.Errorf("goroutine %d: %v", w, err)
					return
				}
				if got := shared.Fingerprint(sharedCanon.Canonical(st)); got != want[i] {
					t.Errorf("goroutine %d successor %d: canonical form\n%q\nwant\n%q", w, i, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPureSpecBeyondEnumerationCap: the 8! cap bounds groups that are
// enumerated; a pure spec sorts, so forward n=9 (9! = 362880) builds a
// Canonicalizer, and it is constant on orbits along a fixed schedule under
// five fixed renamings. Order saturates instead of overflowing.
func TestPureSpecBeyondEnumerationCap(t *testing.T) {
	const n = 9
	sys := buildForward(t, n, service.Adversarial)
	canon, err := symmetry.New(sys, protocols.ForwardSymmetry(n))
	if err != nil {
		t.Fatalf("forward n=%d: %v", n, err)
	}
	if canon.Order() != 362880 {
		t.Errorf("S_9 order %d, want 362880", canon.Order())
	}
	renamings := []map[int]int{
		{0: 8, 8: 0},
		{0: 1, 1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 7, 7: 8, 8: 0},
		{0: 8, 1: 7, 2: 6, 3: 5, 5: 3, 6: 2, 7: 1, 8: 0},
		{1: 4, 4: 1, 2: 7, 7: 2},
		{0: 3, 3: 6, 6: 0, 1: 5, 5: 8, 8: 1},
	}
	rng := rand.New(rand.NewSource(9))
	all := sys.Tasks()
	inputs := map[int]string{}
	for idx, id := range sys.ProcessIDs() {
		inputs[id] = string(rune('0' + idx%2))
	}
	var sched []ioa.Task
	for i := 0; i < 200; i++ {
		sched = append(sched, all[rng.Intn(len(all))])
	}
	for step, st := range runSchedule(t, sys, inputs, sched) {
		want := sys.Fingerprint(canon.Canonical(st))
		for r, perm := range renamings {
			if got := sys.Fingerprint(canon.Canonical(canon.PermuteForTest(st, perm))); got != want {
				t.Fatalf("step %d renaming %d: canonical form not orbit-invariant:\n%q\n%q", step, r, got, want)
			}
		}
	}

	big := buildForward(t, 21, service.Adversarial)
	sat, err := symmetry.New(big, protocols.ForwardSymmetry(21))
	if err != nil {
		t.Fatal(err)
	}
	if sat.Order() != math.MaxInt {
		t.Errorf("S_21 order %d, want saturation at math.MaxInt", sat.Order())
	}
}
