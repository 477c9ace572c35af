package symmetry_test

import (
	"testing"

	"github.com/ioa-lab/boosting/internal/explore"
	"github.com/ioa-lab/boosting/internal/protocols"
	"github.com/ioa-lab/boosting/internal/service"
	"github.com/ioa-lab/boosting/internal/symmetry"
	"github.com/ioa-lab/boosting/internal/system"
)

// quotient builds the symmetry-reduced Lemma 4 graph of sys serially.
func quotient(tb testing.TB, sys *system.System, spec symmetry.Spec) (*symmetry.Canonicalizer, *explore.Graph) {
	tb.Helper()
	canon, err := symmetry.New(sys, spec)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := explore.ClassifyInits(sys, explore.BuildOptions{Workers: 1, Symmetry: canon})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return canon, c.Graph
}

// successors returns the fingerprint of every transition target out of every
// vertex of g, before canonicalization — what the engine hands Canonical —
// split by whether canonicalization renames it.
func successors(tb testing.TB, sys *system.System, canon *symmetry.Canonicalizer, g *explore.Graph) (identity, renamed []string) {
	tb.Helper()
	for id := 0; id < g.Size(); id++ {
		st, ok := g.State(explore.StateID(id))
		if !ok {
			tb.Fatalf("vertex %d has no state", id)
		}
		for _, task := range sys.Tasks() {
			if !sys.Applicable(st, task) {
				continue
			}
			succ, _, err := sys.Apply(st, task)
			if err != nil {
				tb.Fatal(err)
			}
			fp := sys.Fingerprint(succ)
			if canon.Canonical(succ).Equal(succ) {
				identity = append(identity, fp)
			} else {
				renamed = append(renamed, fp)
			}
		}
	}
	return identity, renamed
}

// decode parses fps into states of sys.
func decode(tb testing.TB, sys *system.System, fps []string) []system.State {
	tb.Helper()
	out := make([]system.State, len(fps))
	for i, fp := range fps {
		st, err := sys.ParseFingerprint(fp)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = st
	}
	return out
}

var sink system.State

// BenchmarkCanonical is the per-successor cost of the pure-spec path over
// the successors of the forward n=6 quotient (15 084 of them), by what
// canonicalization has to do:
//
//   - identity: the successor is already the canonical member of its orbit;
//   - renamed-hit: it is renamed onto component cells the System holds;
//   - renamed-miss: it is renamed in a System that has only decoded it, so
//     the renamed service cells are built and interned (a fresh System per
//     round; a round's later successors hit cells its earlier ones made).
//
// ns/op and allocs/op are per successor.
func BenchmarkCanonical(b *testing.B) {
	const n = 6
	sys, err := protocols.BuildForward(n, 0, service.Adversarial)
	if err != nil {
		b.Fatal(err)
	}
	canon, g := quotient(b, sys, protocols.ForwardSymmetry(n))
	identityFps, renamedFps := successors(b, sys, canon, g)
	b.Logf("forward n=%d quotient: %d successors canonical as found, %d renamed", n, len(identityFps), len(renamedFps))

	run := func(canon *symmetry.Canonicalizer, sts []system.State) {
		for _, st := range sts {
			sink = canon.Canonical(st)
		}
	}
	for _, leg := range []struct {
		name string
		fps  []string
	}{{"identity", identityFps}, {"renamed-hit", renamedFps}} {
		b.Run(leg.name, func(b *testing.B) {
			sts := decode(b, sys, leg.fps)
			run(canon, sts) // intern every renamed cell
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += len(sts) {
				run(canon, sts[:min(len(sts), b.N-i)])
			}
		})
	}
	b.Run("renamed-miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i += len(renamedFps) {
			b.StopTimer()
			fresh, err := protocols.BuildForward(n, 0, service.Adversarial)
			if err != nil {
				b.Fatal(err)
			}
			freshCanon, err := symmetry.New(fresh, protocols.ForwardSymmetry(n))
			if err != nil {
				b.Fatal(err)
			}
			sts := decode(b, fresh, renamedFps[:min(len(renamedFps), b.N-i)])
			b.StartTimer()
			run(freshCanon, sts)
		}
	})
}

// BenchmarkEnumerated is the path BenchmarkCanonical does not cover: specs
// with rename/rewrite hooks, canonicalized by scanning the enumerated group.
// One op is one serial quotient build (ClassifyInits) in a fresh System.
func BenchmarkEnumerated(b *testing.B) {
	for _, fam := range []struct {
		name  string
		build func() (*system.System, error)
		spec  symmetry.Spec
	}{
		{"tob-n3", func() (*system.System, error) { return protocols.BuildTOBConsensus(3, 0, service.Adversarial) }, protocols.TOBSymmetry(3)},
		{"registervote-n2", func() (*system.System, error) { return protocols.BuildRegisterVote(2) }, protocols.RegisterVoteSymmetry(2)},
	} {
		b.Run(fam.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys, err := fam.build()
				if err != nil {
					b.Fatal(err)
				}
				canon, err := symmetry.New(sys, fam.spec)
				if err != nil {
					b.Fatal(err)
				}
				c, err := explore.ClassifyInits(sys, explore.BuildOptions{Workers: 1, Symmetry: canon})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(c.Graph.Size()), "states")
				if err := c.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
