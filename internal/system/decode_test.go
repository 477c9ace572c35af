package system_test

// Round-trip and fuzz coverage for the state decoder: for every registry
// protocol family, the root states and a deep BFS sample of reachable
// states must satisfy decode(encode(st)) == st up to byte-identical
// re-encoding — the contract a reopened durable graph depends on.
// (External test package: the protocol builders import system, so these
// tests cannot live in-package.)

import (
	"errors"
	"strings"
	"testing"

	"github.com/ioa-lab/boosting/internal/codec"
	"github.com/ioa-lab/boosting/internal/protocols"
	"github.com/ioa-lab/boosting/internal/service"
	"github.com/ioa-lab/boosting/internal/system"
)

// registrySystems builds one instance of every registry protocol family.
func registrySystems(t testing.TB) map[string]*system.System {
	t.Helper()
	out := map[string]*system.System{}
	add := func(name string, sys *system.System, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = sys
	}
	{
		sys, err := protocols.BuildForward(3, 0, service.Adversarial)
		add("forward", sys, err)
	}
	{
		sys, err := protocols.BuildTOBConsensus(2, 0, service.Adversarial)
		add("tob", sys, err)
	}
	{
		sys, err := protocols.BuildRegisterVote(2)
		add("registervote", sys, err)
	}
	{
		sys, err := protocols.BuildSetBoost(2)
		add("setboost", sys, err)
	}
	{
		sys, err := protocols.BuildFloodSetWithP(3, 0, 2, service.Adversarial)
		add("floodset-p", sys, err)
	}
	{
		sys, err := protocols.BuildFDBoost(3, 3)
		add("fdboost", sys, err)
	}
	{
		sys, err := protocols.BuildFloodSetWithEvP(3, 2)
		add("evperfect", sys, err)
	}
	{
		sys, err := protocols.BuildSuspectCollector(3)
		add("suspectcollector", sys, err)
	}
	return out
}

// sampleStates returns the protocol's root (all inputs delivered) plus a
// BFS sample of reachable states, capped so the detector families' infinite
// graphs stay bounded.
func sampleStates(t testing.TB, sys *system.System, cap int) []system.State {
	t.Helper()
	root := sys.InitialState()
	for idx, id := range sys.ProcessIDs() {
		v := "0"
		if idx%2 == 1 {
			v = "1"
		}
		next, _, err := sys.Init(root, id, v)
		if err != nil {
			t.Fatal(err)
		}
		root = next
	}
	states := []system.State{sys.InitialState(), root}
	seen := map[string]bool{sys.Fingerprint(sys.InitialState()): true, sys.Fingerprint(root): true}
	for head := 1; head < len(states) && len(states) < cap; head++ {
		for _, task := range sys.Tasks() {
			if !sys.Applicable(states[head], task) {
				continue
			}
			succ, _, err := sys.Apply(states[head], task)
			if err != nil {
				t.Fatal(err)
			}
			fp := sys.Fingerprint(succ)
			if seen[fp] {
				continue
			}
			seen[fp] = true
			states = append(states, succ)
			if len(states) >= cap {
				break
			}
		}
	}
	return states
}

// TestParseFingerprintRoundTrip: every sampled reachable state of every
// registry family decodes from its fingerprint and re-encodes
// byte-identically.
func TestParseFingerprintRoundTrip(t *testing.T) {
	for name, sys := range registrySystems(t) {
		states := sampleStates(t, sys, 400)
		if len(states) < 10 {
			t.Fatalf("%s: BFS sample too small (%d states)", name, len(states))
		}
		for i, st := range states {
			fp := sys.Fingerprint(st)
			dec, err := sys.ParseFingerprint(fp)
			if err != nil {
				t.Fatalf("%s state %d: %v\nfingerprint: %q", name, i, err, fp)
			}
			if re := sys.Fingerprint(dec); re != fp {
				t.Fatalf("%s state %d: round trip not byte-identical:\n%q\n%q", name, i, fp, re)
			}
		}
		t.Logf("%s: %d states round-tripped", name, len(states))
	}
}

// TestParseFingerprintSemantics: a decoded state is behaviourally the
// original — same enabled tasks and fingerprint-identical successors —
// which is what a reopened durable graph needs of the states it decoded.
func TestParseFingerprintSemantics(t *testing.T) {
	sys := registrySystems(t)["forward"]
	for i, st := range sampleStates(t, sys, 60) {
		dec, err := sys.ParseFingerprint(sys.Fingerprint(st))
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range sys.Tasks() {
			if app := sys.Applicable(dec, task); app != sys.Applicable(st, task) {
				t.Fatalf("state %d: applicability of %v differs after decode", i, task)
			}
			if !sys.Applicable(st, task) {
				continue
			}
			want, wantAct, err := sys.Apply(st, task)
			if err != nil {
				t.Fatal(err)
			}
			got, gotAct, err := sys.Apply(dec, task)
			if err != nil {
				t.Fatal(err)
			}
			if gotAct != wantAct {
				t.Fatalf("state %d task %v: action %v, want %v", i, task, gotAct, wantAct)
			}
			if sys.Fingerprint(got) != sys.Fingerprint(want) {
				t.Fatalf("state %d task %v: successor differs after decode", i, task)
			}
		}
	}
}

// TestParseFingerprintMalformed: truncated, shuffled and trailing-garbage
// inputs error instead of panicking or decoding silently, and every
// rejection wraps codec.ErrMalformed (the documented classification
// contract, including the trailing-bytes case).
func TestParseFingerprintMalformed(t *testing.T) {
	sys := registrySystems(t)["forward"]
	fp := sys.Fingerprint(sys.InitialState())
	bad := []string{
		"",
		fp[:len(fp)/2],
		fp[1:],
		fp + "tail",
		strings.Replace(fp, "[", "{", 1),
		fp + fp,
	}
	for i, s := range bad {
		_, err := sys.ParseFingerprint(s)
		if err == nil {
			t.Errorf("malformed input %d decoded without error", i)
		} else if !errors.Is(err, codec.ErrMalformed) {
			t.Errorf("malformed input %d: error does not wrap codec.ErrMalformed: %v", i, err)
		}
	}
}

// FuzzParseFingerprint bashes the system state decoder with mutated
// fingerprints: it must never panic, and whenever it accepts an input the
// decoded state must re-encode to a canonical fixed point (decoding the
// re-encoding yields the same bytes again).
func FuzzParseFingerprint(f *testing.F) {
	sys, err := protocols.BuildForward(2, 0, service.Adversarial)
	if err != nil {
		f.Fatal(err)
	}
	for _, st := range sampleStates(f, sys, 40) {
		f.Add(sys.Fingerprint(st))
	}
	f.Add("")
	f.Add("[2:<>2:[]0:0:]")
	f.Add("[999999999:x]")
	f.Add("[-1:]")
	f.Fuzz(func(t *testing.T, s string) {
		// The cell tables (warm for the seeds' components, cold for
		// whatever the mutator invents) never change what is accepted.
		checkParseAgainstReference(t, "fuzz", sys, s)
		st, err := sys.ParseFingerprint(s)
		if err != nil {
			return
		}
		enc := sys.Fingerprint(st)
		st2, err := sys.ParseFingerprint(enc)
		if err != nil {
			t.Fatalf("re-encoding of accepted input does not decode: %v\ninput: %q\nre-encoded: %q", err, s, enc)
		}
		if enc2 := sys.Fingerprint(st2); enc2 != enc {
			t.Fatalf("re-encoding is not a fixed point:\n%q\n%q", enc, enc2)
		}
	})
}
