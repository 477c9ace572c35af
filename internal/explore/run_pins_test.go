package explore_test

// TestRunPins freezes what the scheduled runs return: for each system and
// failure pattern, the fair round-robin run from the initial state, the same
// schedule resumed from an inputs-applied state with the pattern already
// failed, a seeded random run and the batched fair run at one and at four
// workers. Each row pins Rounds, Done, Diverged, Decisions, the trace length,
// the final state's fingerprint and the external-action trace, through one
// SHA-256 over the rows of a (system, schedule) pair.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"github.com/ioa-lab/boosting/internal/explore"
	"github.com/ioa-lab/boosting/internal/ioa"
	"github.com/ioa-lab/boosting/internal/protocols"
	"github.com/ioa-lab/boosting/internal/service"
	"github.com/ioa-lab/boosting/internal/system"
)

// runRow renders one run result for pinning; long fields go in as digests.
func runRow(sys *system.System, label string, res explore.RunResult) string {
	digest := func(s string) string {
		sum := sha256.Sum256([]byte(s))
		return hex.EncodeToString(sum[:8])
	}
	return fmt.Sprintf("%s: rounds=%d done=%v diverged=%v decisions=%v steps=%d final=%s trace=%s",
		label, res.Rounds, res.Done, res.Diverged, res.Decisions, len(res.Exec.Steps),
		digest(sys.Fingerprint(res.Final)), digest(ioa.FormatTrace(res.Exec.Trace())))
}

func TestRunPins(t *testing.T) {
	type pattern struct {
		name     string
		failures []explore.FailureEvent
	}
	for _, tc := range []struct {
		name     string
		build    func() (*system.System, error)
		patterns []pattern
		sha      map[string]string // per schedule
	}{
		{
			name:  "forward-n3-f1",
			build: func() (*system.System, error) { return protocols.BuildForward(3, 1, service.Adversarial) },
			patterns: []pattern{
				{"none", nil},
				{"P0@0", []explore.FailureEvent{{Round: 0, Proc: 0}}},
				{"P1@1,P2@2", []explore.FailureEvent{{Round: 1, Proc: 1}, {Round: 2, Proc: 2}}},
			},
			sha: map[string]string{
				"RoundRobin":     "089791e94162415652634dd44dcaed2494dcd8a426ce6916da2b62990eeb5856",
				"RoundRobinFrom": "94db278f08d190b9582fdb327a6b3dcd2de653687f96f08914f7bc9f483b5c6c",
				"Random":         "d8eb7794f998e9c36a8b38ad503e5de03da977691267e586fc62b6b9d6f13a6d",
				"RunBatch":       "637504a3bc4ec74d27a417cc4a6fe422a272894530a6b159622c0e836157a754",
			},
		},
		{
			name:  "tob-n2",
			build: func() (*system.System, error) { return protocols.BuildTOBConsensus(2, 0, service.Adversarial) },
			patterns: []pattern{
				{"none", nil},
				{"P0@0", []explore.FailureEvent{{Round: 0, Proc: 0}}},
				{"P1@2", []explore.FailureEvent{{Round: 2, Proc: 1}}},
			},
			sha: map[string]string{
				"RoundRobin":     "b22267d72195e00a250c9b5c48f490e4d4e5e65a9c739bb681f403c3902c7d82",
				"RoundRobinFrom": "431bcc104ffd72927c8df72b8cf9b9ad5e8a35e73622b36f38481c2c9a3ed5e3",
				"Random":         "20a4043b40c5983dbe28ec0abd8c97124c6df3d18d97309d64a0e7d590b10195",
				"RunBatch":       "22e9fc1a16f4733036acd555d7c607e52d65402ca7364ea60d3dd0e1428c633e",
			},
		},
		{
			name:  "fdboost-n3",
			build: func() (*system.System, error) { return protocols.BuildFDBoost(3, 3) },
			patterns: []pattern{
				{"none", nil},
				{"P2@0", []explore.FailureEvent{{Round: 0, Proc: 2}}},
				{"P0@0,P1@1", []explore.FailureEvent{{Round: 0, Proc: 0}, {Round: 1, Proc: 1}}},
			},
			sha: map[string]string{
				"RoundRobin":     "e9e4f895ba9781ddead7a306339f95d2e50923f9019c485f6c17f6d8162e495d",
				"RoundRobinFrom": "4a27e8e4a68c5ad7fe915b0e1a6f3701d4442fe30ee26d9a5989a6f5daf02607",
				"Random":         "3b7ebbe2235bca36b50f51b2f7454ad0b7a2a0bc3d39cb7525f1185f0bbb55b9",
				"RunBatch":       "3a19ebf4983e541de11d715404c82afb7b5329ab766e6bc22335efd7dcfbca57",
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			inputs := explore.MonotoneAssignment(sys, 1)
			rows := map[string][]string{}
			var cfgs []explore.RunConfig
			for _, p := range tc.patterns {
				cfg := explore.RunConfig{Inputs: inputs, Failures: p.failures}
				cfgs = append(cfgs, cfg)
				res, err := explore.RoundRobin(sys, cfg)
				if err != nil {
					t.Fatal(err)
				}
				rows["RoundRobin"] = append(rows["RoundRobin"], runRow(sys, p.name, res))

				st, err := explore.ApplyInputs(sys, inputs)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range p.failures {
					if st, _, err = sys.Fail(st, f.Proc); err != nil {
						t.Fatal(err)
					}
				}
				res, err = explore.RoundRobinFrom(sys, st, inputs, 0)
				if err != nil {
					t.Fatal(err)
				}
				rows["RoundRobinFrom"] = append(rows["RoundRobinFrom"], runRow(sys, p.name, res))

				res, err = explore.Random(sys, cfg, 1, 200)
				if err != nil {
					t.Fatal(err)
				}
				rows["Random"] = append(rows["Random"], runRow(sys, p.name, res))
			}
			var batches [][]string
			for _, workers := range []int{1, 4} {
				results, err := explore.RunBatch(context.Background(), sys, cfgs, workers)
				if err != nil {
					t.Fatal(err)
				}
				var batch []string
				for i, res := range results {
					if len(res.Exec.Steps) != 0 {
						t.Errorf("RunBatch at %d workers, %s: Exec has %d steps, want none", workers, tc.patterns[i].name, len(res.Exec.Steps))
					}
					batch = append(batch, runRow(sys, tc.patterns[i].name, res))
				}
				batches = append(batches, batch)
			}
			if a, b := strings.Join(batches[0], "\n"), strings.Join(batches[1], "\n"); a != b {
				t.Errorf("RunBatch differs across workers:\n%s\n--- 4 workers\n%s", a, b)
			}
			rows["RunBatch"] = batches[0]
			for schedule, want := range tc.sha {
				text := strings.Join(rows[schedule], "\n")
				sum := sha256.Sum256([]byte(text))
				if got := hex.EncodeToString(sum[:]); got != want {
					t.Errorf("%s: SHA-256 %s, want %s\n%s", schedule, got, want, text)
				}
			}
		})
	}
}
