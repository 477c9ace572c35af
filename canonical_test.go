package boosting_test

import (
	"bytes"
	"testing"

	"github.com/ioa-lab/boosting"
)

// mustChecker builds a registry checker or fails the test.
func mustChecker(t *testing.T, name string, n, f int, opts ...boosting.Option) *boosting.Checker {
	t.Helper()
	chk, err := boosting.New(name, n, f, opts...)
	if err != nil {
		t.Fatalf("New(%s, %d, %d): %v", name, n, f, err)
	}
	return chk
}

// TestCanonicalFingerprintStable: the identity is a pure function of the
// candidate — two checkers over the same protocol collide even when their
// engine options (workers, store, symmetry) differ, and repeated
// calls return identical bytes.
func TestCanonicalFingerprintStable(t *testing.T) {
	base := mustChecker(t, "forward", 3, 0).CanonicalFingerprint()
	if len(base) == 0 {
		t.Fatal("empty canonical fingerprint")
	}
	variants := []*boosting.Checker{
		mustChecker(t, "forward", 3, 0),
		mustChecker(t, "forward", 3, 0, boosting.WithWorkers(4)),
		mustChecker(t, "forward", 3, 0, boosting.WithStore(boosting.SpillStore)),
		mustChecker(t, "forward", 3, 0, boosting.WithSymmetry()),
	}
	for i, chk := range variants {
		if got := chk.CanonicalFingerprint(); !bytes.Equal(got, base) {
			t.Errorf("variant %d: engine options changed the canonical identity", i)
		}
	}
	if again := mustChecker(t, "forward", 3, 0).CanonicalFingerprint(); !bytes.Equal(again, base) {
		t.Error("canonical fingerprint not reproducible")
	}
}

// TestCanonicalFingerprintDistinguishes: distinct n, f, silence policy and
// round parameters must not collide — each changes the candidate's verdicts,
// so each must change its identity.
func TestCanonicalFingerprintDistinguishes(t *testing.T) {
	cases := []struct {
		name string
		a, b *boosting.Checker
	}{
		{"n", mustChecker(t, "forward", 3, 0), mustChecker(t, "forward", 4, 0)},
		{"f", mustChecker(t, "forward", 3, 0), mustChecker(t, "forward", 3, 1)},
		{"policy", mustChecker(t, "forward", 3, 0),
			mustChecker(t, "forward", 3, 0, boosting.WithSilencePolicy(boosting.Benign))},
		{"rounds", mustChecker(t, "floodset-p", 3, 0, boosting.WithRounds(2)),
			mustChecker(t, "floodset-p", 3, 0, boosting.WithRounds(3))},
		{"protocol", mustChecker(t, "forward", 3, 0), mustChecker(t, "registervote", 3, 0)},
	}
	for _, c := range cases {
		if bytes.Equal(c.a.CanonicalFingerprint(), c.b.CanonicalFingerprint()) {
			t.Errorf("%s: distinct candidates share a canonical fingerprint", c.name)
		}
	}
}

// TestCanonicalRootFingerprintRenaming: input assignments that differ only
// by a renaming of interchangeable processes are isomorphic initialized
// systems and must collide — with or without WithSymmetry — while
// assignments with a different number of 1-inputs must not.
func TestCanonicalRootFingerprintRenaming(t *testing.T) {
	for _, opts := range [][]boosting.Option{nil, {boosting.WithSymmetry()}} {
		chk := mustChecker(t, "forward", 3, 0, opts...)
		fp := func(inputs map[int]string) []byte {
			t.Helper()
			b, err := chk.CanonicalRootFingerprint(inputs)
			if err != nil {
				t.Fatalf("CanonicalRootFingerprint(%v): %v", inputs, err)
			}
			return b
		}
		first := fp(map[int]string{0: "1", 1: "0", 2: "0"})
		for _, renamed := range []map[int]string{
			{0: "0", 1: "1", 2: "0"},
			{0: "0", 1: "0", 2: "1"},
		} {
			if !bytes.Equal(fp(renamed), first) {
				t.Errorf("opts %v: renamed-isomorphic assignment %v did not collide", opts, renamed)
			}
		}
		for _, distinct := range []map[int]string{
			{0: "0", 1: "0", 2: "0"},
			{0: "1", 1: "1", 2: "0"},
		} {
			if bytes.Equal(fp(distinct), first) {
				t.Errorf("opts %v: non-isomorphic assignment %v collided", opts, distinct)
			}
		}
	}
}

// TestCanonicalRootFingerprintErrors: unknown process ids in the input
// assignment surface as errors, not as silently-wrong identities.
func TestCanonicalRootFingerprintErrors(t *testing.T) {
	chk := mustChecker(t, "forward", 2, 0)
	if _, err := chk.CanonicalRootFingerprint(map[int]string{99: "1"}); err == nil {
		t.Error("CanonicalRootFingerprint accepted an unknown process id")
	}
}
