package boosting_test

// A silence policy cannot change a failure-free G(C): the policy only
// chooses between a real action and an enabled dummy, a dummy needs a failed
// endpoint, and G(C) holds failure-free executions only. This test pins
// that at the façade (internal/service pins it per state); boostd's delta
// tier and experiments' E31 rely on it.

import (
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
