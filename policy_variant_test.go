package boosting_test

// A silence policy cannot change a failure-free G(C): the policy only
// chooses between a real action and an enabled dummy, a dummy needs a failed
// endpoint, and G(C) holds failure-free executions only. These tests pin
// that at the façade (internal/service pins it per state), and drive the one
// method that relies on it, Checker.ClassifyReopened.

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/ioa-lab/boosting"
)

// TestPolicyVariantGraphIdentical: the adversarial and the benign candidate
// build the same classification graph per ID — fingerprints, labelled edges,
// valences, roots — for every family boostd's delta tier serves, at every
// resilience 0..n. (tob n=3 is 17 572 states twice; left out.)
func TestPolicyVariantGraphIdentical(t *testing.T) {
	for _, c := range []struct {
		name string
		n    int
	}{{"forward", 2}, {"forward", 3}, {"tob", 2}, {"registervote", 2}, {"setboost", 2}} {
		for f := 0; f <= c.n; f++ {
			t.Run(fmt.Sprintf("%s-n%d-f%d", c.name, c.n, f), func(t *testing.T) {
				classify := func(p boosting.SilencePolicy) *boosting.InitClassification {
					chk, err := boosting.New(c.name, c.n, f, boosting.WithWorkers(1), boosting.WithSilencePolicy(p))
					if err != nil {
						t.Fatal(err)
					}
					res, err := chk.ClassifyInits()
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				adv, ben := classify(boosting.Adversarial), classify(boosting.Benign)
				defer adv.Close()
				defer ben.Close()
				assertGraphsIdentical(t, "benign vs adversarial", adv.Graph, ben.Graph)
				if !slices.Equal(adv.Valences, ben.Valences) || adv.BivalentIndex != ben.BivalentIndex {
					t.Errorf("verdicts differ: adversarial %v/%d, benign %v/%d",
						adv.Valences, adv.BivalentIndex, ben.Valences, ben.BivalentIndex)
				}
			})
		}
	}
}

// TestClassifyReopened commits the adversarial forward graph, then has the
// benign candidate classify from the directory: same graph and verdict as
// its own build, no level explored. A directory that is some other graph of
// a same-shape system — one Explore root instead of the n+1 monotone ones —
// is refused with a typed *ManifestError.
func TestClassifyReopened(t *testing.T) {
	dir := t.TempDir()
	base, err := boosting.New("forward", 3, 1, boosting.WithWorkers(1), boosting.WithGraphDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	committed, err := base.ClassifyInits()
	if err != nil {
		t.Fatal(err)
	}
	if err := committed.Close(); err != nil {
		t.Fatal(err)
	}

	levels := 0
	variant, err := boosting.New("forward", 3, 1, boosting.WithWorkers(1),
		boosting.WithSilencePolicy(boosting.Benign),
		boosting.WithProgress(func(boosting.Progress) { levels++ }))
	if err != nil {
		t.Fatal(err)
	}
	got, err := variant.ClassifyReopened(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if levels != 0 {
		t.Errorf("the reopen reported %d explored levels, want none", levels)
	}
	want, err := variant.ClassifyInits()
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	assertGraphsIdentical(t, "reopened", want.Graph, got.Graph)
	if !slices.Equal(got.Valences, want.Valences) || got.BivalentIndex != want.BivalentIndex {
		t.Errorf("verdict %v/%d, want %v/%d", got.Valences, got.BivalentIndex, want.Valences, want.BivalentIndex)
	}

	other := t.TempDir()
	explorer, err := boosting.New("forward", 3, 1, boosting.WithWorkers(1), boosting.WithGraphDir(other))
	if err != nil {
		t.Fatal(err)
	}
	g, err := explorer.Explore(map[int]string{0: "1", 1: "0", 2: "1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := boosting.CloseGraph(g); err != nil {
		t.Fatal(err)
	}
	refused, err := variant.ClassifyReopened(other)
	var merr *boosting.ManifestError
	if !errors.As(err, &merr) {
		refused.Close()
		t.Fatalf("a single-root directory: want *ManifestError, got %T: %v", err, err)
	}
}
