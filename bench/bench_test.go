package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"
)

// TestPercentileRule pins the reporting rule: the highest percentile with
// at least ten samples beyond it.
func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	if got := quantile(xs, 0.5); got != 6 {
		t.Errorf("median of 1..11 = %v, want 6", got)
	}
	if got := quantile(xs, 0.9); got != 10 {
		t.Errorf("p90 of 1..11 = %v, want 10", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
}

// TestSelfTime pins the span arithmetic: self time is duration minus the
// union of the direct children's intervals, clipped to the parent.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Trace: 1, Span: 1, Parent: 0, Name: "op", StartNs: 0, EndNs: 100},
		{Trace: 1, Span: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 30},
		{Trace: 1, Span: 3, Parent: 1, Name: "b", StartNs: 20, EndNs: 50},  // overlaps a
		{Trace: 1, Span: 4, Parent: 1, Name: "b", StartNs: 90, EndNs: 120}, // runs past its parent
		{Trace: 1, Span: 5, Parent: 2, Name: "leaf", StartNs: 12, EndNs: 18},
	}
	got := map[string]spanTotals{}
	for _, tot := range selfTimes(spans) {
		got[tot.Name] = tot
	}
	for name, want := range map[string]spanTotals{
		"op":   {Count: 1, TotalNs: 100, SelfNs: 50}, // covered: 10–50 and 90–100
		"a":    {Count: 1, TotalNs: 20, SelfNs: 14},
		"b":    {Count: 2, TotalNs: 60, SelfNs: 60},
		"leaf": {Count: 1, TotalNs: 6, SelfNs: 6},
	} {
		want.Name = name
		if got[name] != want {
			t.Errorf("%s: %+v, want %+v", name, got[name], want)
		}
	}
}

// TestTracerOffIsInert holds the nil tracer to recording nothing, so the
// timed runs and the traced run share one code path.
func TestTracerOffIsInert(t *testing.T) {
	var tr *tracer
	sp := tr.op().child("x")
	sp.end()
	on := newTracer()
	root := on.op()
	root.child("x").end()
	root.end()
	if len(on.spans) != 2 || on.spans[1].Parent != on.spans[0].Span || on.spans[1].Trace != on.spans[0].Trace {
		t.Errorf("spans = %+v", on.spans)
	}
}

// TestSessionBodiesDeterministic: the same seed generates byte-identical
// request bodies, and the seed actually drives them.
func TestSessionBodiesDeterministic(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	bodies := func(seed int64) [][]byte {
		rng := rand.New(rand.NewSource(seed))
		var out [][]byte
		for round := 0; round < 3; round++ {
			for k := 0; k < sessionClients; k++ {
				reqs, err := genSession(rng, exp, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(reqs) != 3+3*sessionRepeats {
					t.Fatalf("session has %d requests, want %d", len(reqs), 3+3*sessionRepeats)
				}
				for _, r := range reqs {
					out = append(out, r.body)
				}
			}
		}
		return out
	}
	a, b := bodies(7), bodies(7)
	if !slices.EqualFunc(a, b, bytes.Equal) {
		t.Error("seed 7 generated different request bodies on a second pass")
	}
	if slices.EqualFunc(a, bodies(8), bytes.Equal) {
		t.Error("seeds 7 and 8 generated the same request bodies")
	}
}

// manifest mirrors the root BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadManifest reads BENCHMARK.json.
func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

func defsEqual(t *testing.T, what string, code, file []metricDef) {
	t.Helper()
	if !slices.Equal(code, file) {
		for _, d := range code {
			if !slices.Contains(file, d) {
				t.Errorf("%s: %+v is declared in bench/metrics.go but not (or differently) in BENCHMARK.json", what, d)
			}
		}
		for _, d := range file {
			if !slices.Contains(code, d) {
				t.Errorf("%s: %+v is declared in BENCHMARK.json but not (or differently) in bench/metrics.go", what, d)
			}
		}
		if !t.Failed() {
			t.Errorf("%s: same metrics, different order", what)
		}
	}
}

// TestManifestMatches holds BENCHMARK.json and the harness's declarations
// in step, in both directions.
func TestManifestMatches(t *testing.T) {
	m, err := loadManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	defsEqual(t, "end_to_end", endToEnd, m.EndToEnd)
	defsEqual(t, "per_layer", perLayer, m.PerLayer)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the harness {%s %s}", i, m.Workloads[i], w.name, w.why)
		}
	}
	if !slices.Equal(m.Paths, []string{"bench"}) || !slices.Equal(m.Command, []string{"go", "run", "./bench"}) {
		t.Errorf("paths %v, command %v", m.Paths, m.Command)
	}
}

func metricNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.Name)
	}
	slices.Sort(names)
	return names
}

func emittedNames(out *runOutput) []string {
	var names []string
	for name := range out.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// TestQuickSmoke runs every workload for a moment with tracing off, and
// the cheapest one traced, and checks that what a run emits is exactly
// what is declared — and that every op matched expected.json.
func TestQuickSmoke(t *testing.T) {
	quick := func(w *workload, trace bool) *runOutput {
		t.Helper()
		out, err := runWorkload(runConfig{
			w: w, seed: 1, window: time.Millisecond, trace: trace,
			setups: 1, warm: 1, reps: 1,
			outDir: t.TempDir(), tmpBase: t.TempDir(), log: io.Discard,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
			t.Fatalf("%s: correct=%v attempted=%d failed=%d: %s", w.name, out.Correct, out.Attempted, out.Failed, out.FirstErr)
		}
		return out
	}
	for i := range workloads {
		w := &workloads[i]
		if runtime.NumCPU() < w.minCPUs {
			t.Logf("%s needs %d CPUs; skipped", w.name, w.minCPUs)
			continue
		}
		out := quick(w, false)
		if got, want := emittedNames(out), metricNames(endToEnd); !slices.Equal(got, want) {
			t.Errorf("%s emitted %v, declared %v", w.name, got, want)
		}
		for name, m := range out.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, want a positive value", w.name, name, m.Value)
			}
		}
	}
	w, _ := findWorkload("quotient-durable-n6")
	out := quick(w, true)
	if got, want := emittedNames(out), metricNames(perLayer); !slices.Equal(got, want) {
		t.Errorf("traced %s emitted %v, declared %v", w.name, got, want)
	}
	for _, name := range []string{"symmetry.canonical_ns_per_state", "explore.spill_bytes_per_state", "explore.open_graph_ms"} {
		if out.Metrics[name].Value <= 0 {
			t.Errorf("traced %s: %s = %v, want a positive value", w.name, name, out.Metrics[name].Value)
		}
	}
}

// TestUnmetPreconditionRecordsNothing: a workload whose golden is missing
// refuses to run rather than report a number.
func TestUnmetPreconditionRecordsNothing(t *testing.T) {
	w := workloads[1]
	w.name = "refute-n4-without-golden"
	out, err := runWorkload(runConfig{
		w: &w, seed: 1, window: time.Millisecond, setups: 1, warm: 1, reps: 1,
		outDir: t.TempDir(), tmpBase: t.TempDir(), log: io.Discard,
	})
	if err == nil || out != nil {
		t.Fatalf("run without a golden returned %+v, %v", out, err)
	}
	w = workloads[0]
	w.minCPUs = runtime.NumCPU() + 1
	if out, err := runWorkload(runConfig{w: &w, setups: 1, tmpBase: t.TempDir()}); err == nil || out != nil {
		t.Fatalf("run below the CPU gate returned %+v, %v", out, err)
	}
}

// TestCompare: a ledger compared with itself passes; a metric beyond its
// bound, a failed op, or a -quick ledger does not.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, edit func(*ledger)) string {
		blocks := []blockStats{{Ops: 10, P50Ms: 100, P90Ms: 120, OpsPerS: 10, CPUMsPerOp: 90}}
		row := workloadResult{Name: "refute-n4"}
		row.Attempted, row.Failed, row.Samples, row.EndToEnd = pool([]*runOutput{{
			resultLine: resultLine{Attempted: 10, Metrics: map[string]metric{"peak_rss_mib": {Value: 20}, "setup_s": {Value: 0.5}}},
			Blocks:     blocks,
		}})
		l := &ledger{Workloads: []workloadResult{row}}
		edit(l)
		data, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	scale := func(name string, factor float64) func(*ledger) {
		return func(l *ledger) {
			m := l.Workloads[0].EndToEnd[name]
			m.Value *= factor
			l.Workloads[0].EndToEnd[name] = m
		}
	}
	base := write("base.json", func(*ledger) {})
	for _, c := range []struct {
		name string
		edit func(*ledger)
		ok   bool
	}{
		{"same", func(*ledger) {}, true},
		{"p50 within bound", scale("op_ms_p50", 1.20), true},
		{"p50 beyond bound", scale("op_ms_p50", 1.30), false},
		{"throughput up", scale("ops_per_s", 1.50), true},
		{"throughput beyond bound", scale("ops_per_s", 0.70), false},
		{"failed op", func(l *ledger) { l.Workloads[0].Failed = 1 }, false},
		{"quick", func(l *ledger) { l.Quick = true }, false},
		{"workload missing", func(l *ledger) { l.Workloads = nil }, false},
	} {
		err := compareFiles(io.Discard, base, write("new.json", c.edit))
		if (err == nil) != c.ok {
			t.Errorf("%s: compare returned %v", c.name, err)
		}
	}
}
