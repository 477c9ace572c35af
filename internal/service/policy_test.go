package service

import (
	"testing"

	"github.com/ioa-lab/boosting/internal/ioa"
	"github.com/ioa-lab/boosting/internal/seqtype"
	"github.com/ioa-lab/boosting/internal/servicetype"
)

func isDummy(a ioa.Action) bool {
	return a.Type == ioa.ActDummyPerform || a.Type == ioa.ActDummyOutput || a.Type == ioa.ActDummyCompute
}

// TestPolicyUnobservableFailureFree pins the property every reader of a
// silence-policy variant's graph rests on (explore.ClassifyReopened, boostd's
// delta tier): in a state where no endpoint has failed, every task enables the
// same action under Adversarial and Benign, and never a dummy. The states are
// each service's failure-free reachable set — invocations of every sample at
// every endpoint, every task — up to a cap. The last row is the non-vacuity
// check: one failure past the resilience and the two policies part.
func TestPolicyUnobservableFailureFree(t *testing.T) {
	const maxStates = 500
	consensus := servicetype.FromSequential(seqtype.BinaryConsensus())
	cases := []struct {
		name       string
		typ        *servicetype.Type
		endpoints  []int
		resilience int
	}{
		{"consensus f=0", consensus, []int{0, 1, 2}, 0},
		{"consensus f=1", consensus, []int{0, 1, 2}, 1},
		{"consensus wait-free", consensus, []int{0, 1, 2}, 2},
		{"tob f=0", servicetype.TotallyOrderedBroadcast([]int{0, 1}), []int{0, 1}, 0},
		{"tob f=1", servicetype.TotallyOrderedBroadcast([]int{0, 1}), []int{0, 1}, 1},
		{"perfect-fd f=0", servicetype.PerfectFD([]int{0, 1}), []int{0, 1}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Index: "k", Type: tc.typ, Endpoints: tc.endpoints, Resilience: tc.resilience}
			cfg.Policy = Adversarial
			adv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Policy = Benign
			ben, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			queue := []State{adv.InitialState()}
			visit := func(st State) {
				if fp := st.Fingerprint(); !seen[fp] && len(seen) < maxStates {
					seen[fp] = true
					queue = append(queue, st)
				}
			}
			enabled := 0
			for head := 0; head < len(queue); head++ {
				st := queue[head]
				if st.Failed.Len() != 0 {
					t.Fatalf("failure-free walk reached failed set %v", st.Failed)
				}
				for _, task := range adv.Tasks() {
					a, aok := adv.Enabled(st, task)
					b, bok := ben.Enabled(st, task)
					if aok != bok || a != b {
						t.Fatalf("state %s, task %v: adversarial enables %v (%v), benign %v (%v)",
							st.Fingerprint(), task, a, aok, b, bok)
					}
					if !aok {
						continue
					}
					if isDummy(a) {
						t.Fatalf("state %s, task %v: dummy action %v with no endpoint failed", st.Fingerprint(), task, a)
					}
					enabled++
					next, _, err := adv.Apply(st, task)
					if err != nil {
						t.Fatal(err)
					}
					visit(next)
				}
				for _, i := range tc.endpoints {
					for _, inv := range tc.typ.SampleInvs {
						next, err := adv.Invoke(st, i, inv)
						if err != nil {
							t.Fatal(err)
						}
						visit(next)
					}
				}
			}
			if enabled == 0 {
				t.Fatal("no task was ever enabled: the walk checked nothing")
			}
		})
	}

	t.Run("one failure past the resilience", func(t *testing.T) {
		cfg := Config{Index: "k", Type: consensus, Endpoints: []int{0, 1, 2}, Policy: Adversarial}
		adv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Policy = Benign
		ben, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := adv.Invoke(adv.InitialState(), 1, seqtype.Init("0"))
		if err != nil {
			t.Fatal(err)
		}
		st = adv.Fail(st, 0)
		task := ioa.PerformTask("k", 1)
		a, aok := adv.Enabled(st, task)
		b, bok := ben.Enabled(st, task)
		if !aok || !bok || !isDummy(a) || isDummy(b) {
			t.Fatalf("perform at a live endpoint with |failed| > f: adversarial %v (%v), benign %v (%v); want dummy vs real",
				a, aok, b, bok)
		}
	})
}
