package boosting_test

// Engine benchmarks: the E22–E29 and E38 rows of EXPERIMENTS.md, selected by
// `make bench-allocs`, `make bench-symmetry` and `make bench-adjacency`. The
// paper-artifact rows (E1–E21 and the rest of the report) are checked by
// `go test ./cmd/experiments`. Run with
//
//	go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"github.com/ioa-lab/boosting"
	"github.com/ioa-lab/boosting/internal/explore"
	"github.com/ioa-lab/boosting/internal/ioa"
	"github.com/ioa-lab/boosting/internal/protocols"
	"github.com/ioa-lab/boosting/internal/service"
	"github.com/ioa-lab/boosting/internal/symmetry"
	"github.com/ioa-lab/boosting/internal/system"
)

// BenchmarkBuildGraph (E22) runs the level loop on the two largest completing
// seed systems — the 4-process forward candidate (2486-vertex G(C)) and the
// 2-process register-vote candidate (1416 vertices) — on the two largest
// default-path exhaustive builds, the forward n=5 G(C) (14754 vertices /
// 103926 edges) and the symmetry-reduced forward n=6 quotient (1764 / 15084),
// and on tob n=2 (308 vertices). Every row but the last reuses one System, so
// its cell tables and transition memo are warm after the first iteration;
// forward-n5-cold composes a fresh System per iteration, which is what a
// `New → ClassifyInits → Close` of the time-to-verdict harness pays (E44
// holds it to ≤ 65 k allocations and ≤ 7 MB an op: 62.5 k · 6.53 MB
// measured; 71.9 k · 8.89 MB in E43, while service buffers were maps copied
// on every transition).
func BenchmarkBuildGraph(b *testing.B) {
	forward := func(n int) func() (*system.System, error) {
		return func() (*system.System, error) { return protocols.BuildForward(n, 0, service.Adversarial) }
	}
	systems := []struct {
		name  string
		build func() (*system.System, error)
		spec  symmetry.Spec // with orbits: explore the quotient
		cold  bool          // a fresh System per iteration
	}{
		{"tob-n2", func() (*system.System, error) { return protocols.BuildTOBConsensus(2, 0, service.Adversarial) }, symmetry.Spec{}, false},
		{"forward-n4", forward(4), symmetry.Spec{}, false},
		{"registervote-n2", func() (*system.System, error) { return protocols.BuildRegisterVote(2) }, symmetry.Spec{}, false},
		{"forward-n5", forward(5), symmetry.Spec{}, false},
		{"forward-n6-sym", forward(6), protocols.ForwardSymmetry(6), false},
		{"forward-n5-cold", forward(5), symmetry.Spec{}, true},
	}
	for _, sc := range systems {
		sys, err := sc.build()
		if err != nil {
			b.Fatal(err)
		}
		var canon explore.Canonicalizer
		if len(sc.spec.Orbits) > 0 {
			if canon, err = symmetry.New(sys, sc.spec); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(sc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := sys
				if sc.cold {
					if sys, err = sc.build(); err != nil {
						b.Fatal(err)
					}
				}
				c, err := explore.ClassifyInits(sys, explore.BuildOptions{Symmetry: canon})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(c.Graph.Size()), "states")
			}
		})
	}
}

// BenchmarkRefuteWorkers (E23) compares the serial refuter against the one
// whose failure scenarios run concurrently, on the register-vote candidate;
// its safety sweep, built on one goroutine, dominates.
func BenchmarkRefuteWorkers(b *testing.B) {
	sys, err := protocols.BuildRegisterVote(2)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				report, err := explore.Refute(sys, 1, explore.RefuteOptions{
					Build: explore.BuildOptions{Workers: w},
				})
				if err != nil || !report.Violated() {
					b.Fatalf("refutation failed: %v", err)
				}
			}
		})
	}
}

// BenchmarkRunBatchWorkers (E24) compares batched fair runs across worker
// counts on the Section 4 construction: all 15 proper failure patterns of
// the 4-process set-boost system, verified concurrently.
func BenchmarkRunBatchWorkers(b *testing.B) {
	sys, err := protocols.BuildSetBoost(2)
	if err != nil {
		b.Fatal(err)
	}
	inputs := map[int]string{0: "0", 1: "1", 2: "1", 3: "0"}
	var cfgs []explore.RunConfig
	for bits := 0; bits < 1<<4; bits++ {
		var failures []explore.FailureEvent
		for idx := 0; idx < 4; idx++ {
			if bits&(1<<idx) != 0 {
				failures = append(failures, explore.FailureEvent{Round: 0, Proc: idx})
			}
		}
		if len(failures) == 4 {
			continue
		}
		cfgs = append(cfgs, explore.RunConfig{Inputs: inputs, Failures: failures})
	}
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := explore.RunBatch(context.Background(), sys, cfgs, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFingerprint (E25) compares the string fingerprint builder with
// the append-style byte encoder that the interned exploration engines use:
// same bytes, but the append form reuses one buffer and allocates nothing.
// The after-apply rows take a state two rounds of Apply into a run, with
// several buffers in flight: "append" copies the encodings cached in the
// state's interned cells (E32) and must stay at 0 allocs/op, "reencode" runs
// the component encoders the way every successor did before interning.
func BenchmarkFingerprint(b *testing.B) {
	sys, err := protocols.BuildForward(3, 1, service.Adversarial)
	if err != nil {
		b.Fatal(err)
	}
	st := sys.InitialState()
	st, _, _ = sys.Init(st, 0, "0")
	st, _, _ = sys.Init(st, 1, "1")
	st, _, _ = sys.Apply(st, ioa.ProcessTask(0))
	b.Run("string", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = sys.Fingerprint(st)
		}
	})
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 1024)
		for i := 0; i < b.N; i++ {
			buf = sys.AppendFingerprint(buf[:0], st)
		}
	})
	for round := 0; round < 2; round++ {
		for _, task := range sys.Tasks() {
			if next, _, err := sys.Apply(st, task); err == nil {
				st = next
			}
		}
	}
	b.Run("after-apply/append", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 1024)
		for i := 0; i < b.N; i++ {
			buf = sys.AppendFingerprint(buf[:0], st)
		}
	})
	b.Run("after-apply/reencode", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 1024)
		for i := 0; i < b.N; i++ {
			buf = buf[:0]
			for slot := range sys.ProcessIDs() {
				buf = st.Proc(slot).AppendFingerprint(buf)
			}
			for slot := range sys.ServiceIDs() {
				buf = st.Svc(slot).AppendFingerprint(buf)
			}
		}
	})
}

// BenchmarkSymmetry (E27) compares unreduced exploration against
// symmetry-reduced exploration on the forward n=4 exhaustive build: the
// quotient graph modulo process renaming has 385 vertices instead of 2486
// (a 6.5× reduction at |S_4| = 24), at the cost of canonicalizing every
// discovered successor. The timed loop measures build time and allocation
// churn; retainedB/state shows the per-build live heap the finished graph
// keeps, where the reduction pays off.
func BenchmarkSymmetry(b *testing.B) {
	modes := []struct {
		name string
		opts []boosting.Option
	}{
		{"unreduced", nil},
		{"symmetry", []boosting.Option{boosting.WithSymmetry()}},
	}
	for _, sc := range modes {
		b.Run(sc.name, func(b *testing.B) {
			chk, err := boosting.New("forward", 4, 0,
				append([]boosting.Option{boosting.WithWorkers(1)}, sc.opts...)...)
			if err != nil {
				b.Fatal(err)
			}
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			probe, err := chk.ClassifyInits()
			if err != nil {
				b.Fatal(err)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			retained := float64(after.HeapAlloc) - float64(before.HeapAlloc)
			states := probe.Graph.Size()
			runtime.KeepAlive(probe)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := chk.ClassifyInits()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(c.Graph.Size()), "states")
			}
			b.ReportMetric(retained, "retainedB")
			b.ReportMetric(retained/float64(states), "retainedB/state")
		})
	}
}

// BenchmarkSpillAdjacency (E29) measures the spilled-adjacency redesign on
// the exhaustive forward n=5 build (14754 states / 103926 edges): dense as
// the reference, and spill with edges delta-varint encoded in the edge
// file — the configuration that carries exhaustive forward n=6 and
// registervote n=3 under the 64 MiB ceiling (see cmd/experiments, e29). The retained probe
// is the live heap the finished graph keeps; edgeB/edge is the on-disk
// encoding density of the adjacency blocks.
func BenchmarkSpillAdjacency(b *testing.B) {
	bench := func(name string, opts ...boosting.Option) {
		b.Run(name, func(b *testing.B) {
			chk, err := boosting.New("forward", 5, 0,
				append([]boosting.Option{boosting.WithWorkers(1)}, opts...)...)
			if err != nil {
				b.Fatal(err)
			}
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			probe, err := chk.ClassifyInits()
			if err != nil {
				b.Fatal(err)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			retained := float64(after.HeapAlloc) - float64(before.HeapAlloc)
			states, edges := probe.Graph.Size(), probe.Graph.Edges()
			spillStats, spilled := boosting.GraphSpillStats(probe.Graph)
			runtime.KeepAlive(probe)
			boosting.CloseGraph(probe.Graph)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := chk.ClassifyInits()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(c.Graph.Size()), "states")
				boosting.CloseGraph(c.Graph)
			}
			if spilled {
				b.ReportMetric(float64(spillStats.EdgeBytes)/float64(edges), "edgeB/edge")
				b.ReportMetric(float64(spillStats.EdgeReads), "edgereads")
			}
			b.ReportMetric(retained, "retainedB")
			b.ReportMetric(retained/float64(states), "retainedB/state")
		})
	}
	bench("forward-n5/dense")
	bench("forward-n5/spill", boosting.WithSpillDir(b.TempDir()))
}

// BenchmarkStoreBackends (E26, E38) measures the dense store on the
// exhaustive forward builds (n=4: 2486 vertices, n=5: 14754, n=6: 85822).
// The timed loop measures build time and per-build allocation churn
// (-benchmem); retainedB/state is the live heap the finished graph keeps per
// vertex — what keying on cell-index tuples shrank below the deleted
// hash-compaction store's. forward-n6/dense is the B/op sentinel of the
// store's fixed-capacity segments (E40): ≤ 30 MB an op, 82.4 before them.
func BenchmarkStoreBackends(b *testing.B) {
	for _, n := range []int{4, 5, 6} {
		b.Run(fmt.Sprintf("forward-n%d/dense", n), func(b *testing.B) {
			chk, err := boosting.New("forward", n, 0, boosting.WithWorkers(1))
			if err != nil {
				b.Fatal(err)
			}
			// Retained-memory probe: live heap before vs after one build,
			// with the graph kept alive across the second reading.
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			probe, err := chk.ClassifyInits()
			if err != nil {
				b.Fatal(err)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			retained := float64(after.HeapAlloc) - float64(before.HeapAlloc)
			states := probe.Graph.Size()
			runtime.KeepAlive(probe)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := chk.ClassifyInits()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(c.Graph.Size()), "states")
			}
			b.ReportMetric(retained/float64(states), "retainedB/state")
		})
	}
}
