package boosting_test

// Benchmarks, one per experiment row of EXPERIMENTS.md (E1–E21): they time
// the machinery that regenerates each paper artifact. Run with
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/ioa-lab/boosting"
	"github.com/ioa-lab/boosting/internal/check"
	"github.com/ioa-lab/boosting/internal/codec"
	"github.com/ioa-lab/boosting/internal/explore"
	"github.com/ioa-lab/boosting/internal/ioa"
	"github.com/ioa-lab/boosting/internal/linearize"
	"github.com/ioa-lab/boosting/internal/protocols"
	"github.com/ioa-lab/boosting/internal/seqtype"
	"github.com/ioa-lab/boosting/internal/service"
	"github.com/ioa-lab/boosting/internal/servicetype"
	"github.com/ioa-lab/boosting/internal/symmetry"
	"github.com/ioa-lab/boosting/internal/system"
)

func mustForward(b *testing.B, n, f int, policy service.SilencePolicy) *system.System {
	b.Helper()
	sys, err := protocols.BuildForward(n, f, policy)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkCanonicalAtomicObject (E1) times one invoke→perform→output cycle
// of the canonical atomic object of Fig. 1.
func BenchmarkCanonicalAtomicObject(b *testing.B) {
	obj, err := service.NewWaitFree("k",
		servicetype.FromSequential(seqtype.BinaryConsensus()), []int{0, 1}, service.Adversarial)
	if err != nil {
		b.Fatal(err)
	}
	init := obj.InitialState()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, _ := obj.Invoke(init, 0, seqtype.Init("1"))
		st, _, _ = obj.Apply(st, ioa.PerformTask("k", 0))
		_, _, _ = obj.Apply(st, ioa.OutputTask("k", 0))
	}
}

// BenchmarkApplicability (E2) times the Lemma 1 applicability scan over one
// system state.
func BenchmarkApplicability(b *testing.B) {
	sys := mustForward(b, 3, 1, service.Adversarial)
	st := sys.InitialState()
	st, _, _ = sys.Init(st, 0, "0")
	st, _, _ = sys.Apply(st, ioa.ProcessTask(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, task := range sys.Tasks() {
			sys.Applicable(st, task)
		}
	}
}

// BenchmarkBivalentInit (E3) times the Lemma 4 classification (building
// G(C) from all monotone initializations and computing valences).
func BenchmarkBivalentInit(b *testing.B) {
	sys := mustForward(b, 2, 0, service.Adversarial)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := explore.ClassifyInits(sys, explore.BuildOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHookSearch (E4) times the Fig. 3 construction on a prebuilt
// graph.
func BenchmarkHookSearch(b *testing.B) {
	sys := mustForward(b, 2, 0, service.Adversarial)
	c, err := explore.ClassifyInits(sys, explore.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := explore.FindHook(c.Graph, c.Roots[c.BivalentIndex]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimilarity (E5) times the j-/k-similarity sweep over a pair of
// states.
func BenchmarkSimilarity(b *testing.B) {
	sys := mustForward(b, 2, 0, service.Adversarial)
	c, err := explore.ClassifyInits(sys, explore.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	hs, err := explore.FindHook(c.Graph, c.Roots[c.BivalentIndex])
	if err != nil || hs.Hook == nil {
		b.Fatalf("hook: %v", err)
	}
	s0, _ := c.Graph.State(hs.Hook.Alpha0)
	s1, _ := c.Graph.State(hs.Hook.Alpha1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		explore.SomeSimilarity(sys, s0, s1, explore.SimilarityOptions{})
	}
}

// BenchmarkRefuteAtomic (E6) times the full Theorem 2 refutation of the
// forward candidate.
func BenchmarkRefuteAtomic(b *testing.B) {
	sys := mustForward(b, 2, 0, service.Adversarial)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := explore.Refute(sys, 1, explore.RefuteOptions{})
		if err != nil || !report.Violated() {
			b.Fatalf("refutation failed: %v", err)
		}
	}
}

// BenchmarkSetBoost (E7) times one full run of the Section 4 construction.
func BenchmarkSetBoost(b *testing.B) {
	sys, err := protocols.BuildSetBoost(2)
	if err != nil {
		b.Fatal(err)
	}
	inputs := map[int]string{0: "0", 1: "1", 2: "1", 3: "0"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := explore.RoundRobin(sys, explore.RunConfig{Inputs: inputs})
		if err != nil || !res.Done {
			b.Fatalf("run failed: %v", err)
		}
	}
}

// BenchmarkTOB (E8) times a three-broadcast totally-ordered-broadcast run
// including the total-order check.
func BenchmarkTOB(b *testing.B) {
	sys, err := protocols.BuildTOBConsensus(3, 2, service.Adversarial)
	if err != nil {
		b.Fatal(err)
	}
	inputs := map[int]string{0: "a", 1: "b", 2: "c"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := explore.RoundRobin(sys, explore.RunConfig{Inputs: inputs})
		if err != nil {
			b.Fatal(err)
		}
		if err := check.TotalOrder(check.TOBDeliveries(res.Exec, "b0")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefuteOblivious (E9) times the Theorem 9 refutation of the TOB
// candidate.
func BenchmarkRefuteOblivious(b *testing.B) {
	sys, err := protocols.BuildTOBConsensus(2, 0, service.Adversarial)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := explore.Refute(sys, 1, explore.RefuteOptions{})
		if err != nil || !report.Violated() {
			b.Fatalf("refutation failed: %v", err)
		}
	}
}

// BenchmarkPerfectFD (E10) times a suspect-collector run with one failure,
// including the accuracy audit.
func BenchmarkPerfectFD(b *testing.B) {
	sys, err := protocols.BuildSuspectCollector(3)
	if err != nil {
		b.Fatal(err)
	}
	cfg := explore.RunConfig{
		Inputs:    map[int]string{0: "x", 1: "x", 2: "x"},
		Failures:  []explore.FailureEvent{{Round: 0, Proc: 1}},
		MaxRounds: 50,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := explore.RoundRobin(sys, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := check.FDAccuracy(res.Exec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventuallyPerfectFD (E11) times ◇P mode transitions and reports.
func BenchmarkEventuallyPerfectFD(b *testing.B) {
	u := servicetype.EventuallyPerfectFD([]int{0, 1, 2})
	fs := codec.NewIntSet(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, mode := u.Delta2(servicetype.EvPerfectStabilizeTask, servicetype.ModeImperfect, fs)
		u.Delta2("fd0", mode, fs)
	}
}

// BenchmarkFDBoost (E12) times one full FD-boost consensus run with one
// failure.
func BenchmarkFDBoost(b *testing.B) {
	sys, err := protocols.BuildFDBoost(3, 3)
	if err != nil {
		b.Fatal(err)
	}
	cfg := explore.RunConfig{
		Inputs:   map[int]string{0: "1", 1: "0", 2: "1"},
		Failures: []explore.FailureEvent{{Round: 0, Proc: 1}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := explore.RoundRobin(sys, cfg)
		if err != nil || !res.Done {
			b.Fatalf("run failed: done=%v err=%v", res.Done, err)
		}
	}
}

// BenchmarkRefuteGeneral (E13) times the Theorem 10 refutation of FloodSet
// over a weak all-connected perfect detector.
func BenchmarkRefuteGeneral(b *testing.B) {
	sys, err := protocols.BuildFloodSetWithP(3, 0, 2, service.Adversarial)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := explore.Refute(sys, 1, explore.RefuteOptions{SkipGraphAnalysis: true, MaxRounds: 500})
		if err != nil || !report.Violated() {
			b.Fatalf("refutation failed: %v", err)
		}
	}
}

// BenchmarkCanonicalConsensus (E14) times a Theorem 11 scenario: a fair run
// of the canonical consensus object with one failure, plus the three
// condition checks.
func BenchmarkCanonicalConsensus(b *testing.B) {
	sys := mustForward(b, 3, 1, service.Adversarial)
	inputs := map[int]string{0: "1", 1: "0", 2: "0"}
	cfg := explore.RunConfig{
		Inputs:   inputs,
		Failures: []explore.FailureEvent{{Round: 0, Proc: 2}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := explore.RoundRobin(sys, cfg)
		if err != nil {
			b.Fatal(err)
		}
		run := check.ConsensusRun{Inputs: inputs, Failed: []int{2}, Decisions: res.Decisions, Done: res.Done}
		if err := check.Consensus(run); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKSetType (E15) times k-set-consensus δ applications.
func BenchmarkKSetType(b *testing.B) {
	ty := seqtype.KSetConsensus(2, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		val := ty.Initials[0]
		for v := 0; v < 4; v++ {
			r, err := ty.ApplyOne(seqtype.Init(itoa(v)), val)
			if err != nil {
				b.Fatal(err)
			}
			val = r.NewVal
		}
	}
}

func itoa(v int) string {
	return string(rune('0' + v))
}

// BenchmarkLinearizability (E16) times history extraction + Wing–Gong check
// on a random-schedule execution.
func BenchmarkLinearizability(b *testing.B) {
	sys := mustForward(b, 3, 2, service.Adversarial)
	res, err := explore.Random(sys, explore.RunConfig{
		Inputs: map[int]string{0: "0", 1: "1", 2: "1"},
	}, 7, 4000)
	if err != nil {
		b.Fatal(err)
	}
	types := map[string]*seqtype.Type{"k0": seqtype.BinaryConsensus()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := linearize.CheckExecution(res.Exec, types); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefuteRegisterVote (E17) times the exhaustive safety sweep that
// catches the naive register-only candidate.
func BenchmarkRefuteRegisterVote(b *testing.B) {
	sys, err := protocols.BuildRegisterVote(2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := explore.Refute(sys, 1, explore.RefuteOptions{})
		if err != nil || !report.Violated() {
			b.Fatalf("refutation failed: %v", err)
		}
	}
}

// BenchmarkRefuteSetBoostAsConsensus (E18) times the boundary cross-check.
func BenchmarkRefuteSetBoostAsConsensus(b *testing.B) {
	sys, err := protocols.BuildSetBoost(2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := explore.Refute(sys, 1, explore.RefuteOptions{})
		if err != nil || !report.Violated() {
			b.Fatalf("refutation failed: %v", err)
		}
	}
}

// BenchmarkHookOnTOB (E19) times graph construction + hook search on the
// failure-oblivious candidate.
func BenchmarkHookOnTOB(b *testing.B) {
	sys, err := protocols.BuildTOBConsensus(2, 0, service.Adversarial)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := explore.ClassifyInits(sys, explore.BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := explore.FindHook(c.Graph, c.Roots[c.BivalentIndex]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphGrowth reports how G(C) scales with process count for the
// forward candidate (the exhaustive analyses' cost driver).
func BenchmarkGraphGrowth(b *testing.B) {
	for _, n := range []int{2, 3} {
		b.Run("n="+itoa(n), func(b *testing.B) {
			sys := mustForward(b, n, 0, service.Adversarial)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := explore.ClassifyInits(sys, explore.BuildOptions{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(c.Graph.Size()), "states")
			}
		})
	}
}

// BenchmarkSilencePolicyAblation compares refutation work across the two
// silence policies (E6 vs E6b): the benign object survives, so its phase-3
// scenarios run to completion instead of stopping at the first certificate.
func BenchmarkSilencePolicyAblation(b *testing.B) {
	for _, policy := range []service.SilencePolicy{service.Adversarial, service.Benign} {
		b.Run(policy.String(), func(b *testing.B) {
			sys := mustForward(b, 2, 0, policy)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := explore.Refute(sys, 1, explore.RefuteOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRefuteKSet (E20) times the k-set refuter on the set-boost system
// at its genuine claim (k = 2, wait-free).
func BenchmarkRefuteKSet(b *testing.B) {
	sys, err := protocols.BuildSetBoost(2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := explore.RefuteKSet(sys, 2, 3, explore.RefuteOptions{})
		if err != nil || report.Violated() {
			b.Fatalf("k-set refuter: %v", err)
		}
	}
}

// workerSweep returns the deduplicated worker counts benchmarked by the
// serial-vs-parallel comparisons: serial, a couple of fixed points, and one
// worker per CPU.
func workerSweep() []int {
	counts := []int{1, 2, 4}
	ncpu := runtime.NumCPU()
	for _, c := range counts {
		if c == ncpu {
			return counts
		}
	}
	return append(counts, ncpu)
}

// BenchmarkBuildGraphWorkers (E22) runs the level loop at one worker (every
// level inline) and at more (levels at least minPooledLevel wide on the pool)
// on the two largest completing seed systems — the 4-process forward candidate
// (2486-vertex G(C)) and the 2-process register-vote candidate (1416
// vertices) — and on the two largest default-path exhaustive builds: the
// forward n=5 G(C) (14754 vertices / 103926 edges) and the symmetry-reduced
// forward n=6 quotient (1764 / 15084). The workers=0 rows are what every CLI
// runs by default, on the paper-sized graphs: tob n=2 (308 vertices, no level
// wide enough to pool) and forward n=4 (E41). Every row but the last reuses
// one System, so its cell tables and transition memo are warm after the first
// iteration; forward-n5-cold composes a fresh System per iteration, which is
// what a `New → ClassifyInits → Close` of the time-to-verdict harness pays
// (E41 holds its workers=2 row to ≤ 95 k allocations and ≤ 12.5 MB an op:
// 92.1 k · 11.40 MB measured; 92.2 k · 11.53 MB in E40, ≤ 20 MB in E39,
// while the dense store grew by append-doubling).
func BenchmarkBuildGraphWorkers(b *testing.B) {
	forward := func(n int) func() (*system.System, error) {
		return func() (*system.System, error) { return protocols.BuildForward(n, 0, service.Adversarial) }
	}
	sweep := workerSweep()
	systems := []struct {
		name    string
		build   func() (*system.System, error)
		spec    symmetry.Spec // with orbits: explore the quotient
		cold    bool          // a fresh System per iteration
		workers []int
	}{
		{"tob-n2", func() (*system.System, error) { return protocols.BuildTOBConsensus(2, 0, service.Adversarial) }, symmetry.Spec{}, false, []int{0}},
		{"forward-n4", forward(4), symmetry.Spec{}, false, append([]int{0}, sweep...)},
		{"registervote-n2", func() (*system.System, error) { return protocols.BuildRegisterVote(2) }, symmetry.Spec{}, false, sweep},
		{"forward-n5", forward(5), symmetry.Spec{}, false, sweep},
		{"forward-n6-sym", forward(6), protocols.ForwardSymmetry(6), false, sweep},
		{"forward-n5-cold", forward(5), symmetry.Spec{}, true, sweep},
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
		for _, w := range sc.workers {
			b.Run(fmt.Sprintf("%s/workers=%d", sc.name, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sys := sys
					if sc.cold {
						if sys, err = sc.build(); err != nil {
							b.Fatal(err)
						}
					}
					c, err := explore.ClassifyInits(sys, explore.BuildOptions{Workers: w, Symmetry: canon})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(c.Graph.Size()), "states")
				}
			})
		}
	}
}

// BenchmarkRefuteWorkers (E23) compares the serial refuter against the
// parallel one (concurrent safety sweep, parallel graph, concurrent failure
// scenarios) on the register-vote candidate, whose 2^n safety sweep
// dominates.
func BenchmarkRefuteWorkers(b *testing.B) {
	sys, err := protocols.BuildRegisterVote(2)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range workerSweep() {
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
	for _, w := range workerSweep() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := explore.RunBatch(sys, cfgs, w); err != nil {
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
	sys := mustForward(b, 3, 1, service.Adversarial)
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
// the reference, spill with edges delta-varint encoded in the edge file,
// and spill with the witness links dropped on top (WithoutWitnesses) — the
// configuration that carries exhaustive forward n=6 and registervote n=3
// under the 64 MiB ceiling (see cmd/experiments, e29). The retained probe
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
	bench("forward-n5/spill-nowitness", boosting.WithSpillDir(b.TempDir()), boosting.WithoutWitnesses())
}

// BenchmarkFairnessAudit (E21) times the post-hoc fairness audit of a fair
// run.
func BenchmarkFairnessAudit(b *testing.B) {
	sys := mustForward(b, 2, 1, service.Adversarial)
	res, err := explore.RoundRobin(sys, explore.RunConfig{Inputs: map[int]string{0: "0", 1: "1"}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := explore.AuditFairness(sys, res.Exec, 0); err != nil {
			b.Fatal(err)
		}
	}
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
