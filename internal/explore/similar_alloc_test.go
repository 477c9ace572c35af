package explore_test

// Allocation pins for the similarity predicates: JSimilar/KSimilar run
// inside refutation inner loops, so they must compare component
// fingerprints through reused buffers — zero heap allocations per call
// once the buffer pool is warm.

import (
	"context"
	"testing"

	"github.com/ioa-lab/boosting/internal/allocpin"
	"github.com/ioa-lab/boosting/internal/explore"
	"github.com/ioa-lab/boosting/internal/protocols"
	"github.com/ioa-lab/boosting/internal/service"
	"github.com/ioa-lab/boosting/internal/system"
)

// similarStates builds a pair of distinct reachable states to compare.
func similarStates(t testing.TB) (*system.System, system.State, system.State) {
	t.Helper()
	sys, err := protocols.BuildForward(3, 1, service.Adversarial)
	if err != nil {
		t.Fatal(err)
	}
	c, err := explore.ClassifyInits(sys, explore.BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs, err := explore.FindHook(context.Background(), c.Graph, c.Roots[c.BivalentIndex])
	if err != nil || hs.Hook == nil {
		t.Fatalf("hook: %v", err)
	}
	s0, _ := c.Graph.State(hs.Hook.Alpha0)
	s1, _ := c.Graph.State(hs.Hook.Alpha1)
	return sys, s0, s1
}

func TestSimilarityZeroAllocs(t *testing.T) {
	sys, s0, s1 := similarStates(t)
	j := sys.ProcessIDs()[0]
	k := sys.ServiceIDs()[0]
	// Warm the buffer pool so the measured runs reuse pooled buffers.
	explore.JSimilar(sys, s0, s1, j)
	explore.KSimilar(sys, s0, s1, k)
	allocpin.Check(t, "JSimilar", 100, 0, func() {
		explore.JSimilar(sys, s0, s1, j)
	})
	allocpin.Check(t, "KSimilar", 100, 0, func() {
		explore.KSimilar(sys, s0, s1, k)
	})
}

// BenchmarkSimilarAllocs reports the per-comparison cost of the similarity
// predicates (the -benchmem columns pin the zero-allocation contract).
func BenchmarkSimilarAllocs(b *testing.B) {
	sys, s0, s1 := similarStates(b)
	j := sys.ProcessIDs()[0]
	k := sys.ServiceIDs()[0]
	b.Run("JSimilar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			explore.JSimilar(sys, s0, s1, j)
		}
	})
	b.Run("KSimilar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			explore.KSimilar(sys, s0, s1, k)
		}
	})
}
