package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/ioa-lab/boosting"
	"github.com/ioa-lab/boosting/internal/intern"
	"github.com/ioa-lab/boosting/internal/protocols"
	"github.com/ioa-lab/boosting/internal/symmetry"
)

// Layer probes of the traced run. Layers are measured from outside: the
// harness rebuilds the workload's graph serially, then re-issues — in
// batches under one timer each — exactly the public calls the engine made
// per vertex, and reports what is left of the build's wall time as the
// engine's own share.

// replayBatch is how many vertices share one timer reading per phase, so
// clock reads stay far below the cost being measured.
const replayBatch = 128

// phase accumulates the time of one replayed call across batches.
type phase struct {
	name  string
	total time.Duration
}

func (p *phase) run(parent spanRef, f func()) {
	sp := parent.child(p.name)
	start := time.Now()
	f()
	p.total += time.Since(start)
	sp.end()
}

// probeLayers fills values with the workload's per-layer metrics.
func probeLayers(values layerValues, cfg runConfig, e *env, tr *tracer) error {
	spec := cfg.w.build
	spec.workers = 1
	if err := buildLayers(values, spec, e.tmp, cfg.reps, tr); err != nil {
		return fmt.Errorf("bench: %s layer probes: %w", cfg.w.name, err)
	}
	if cfg.w.probes != nil {
		if err := cfg.w.probes(values, cfg, e); err != nil {
			return fmt.Errorf("bench: %s layer probes: %w", cfg.w.name, err)
		}
	}
	return nil
}

// scratchDir returns a fresh directory for a durable or spill build ("" for
// in-memory specs).
func (s buildSpec) scratchDir(tmp string) (string, error) {
	if !s.durable && !s.spill {
		return "", nil
	}
	return os.MkdirTemp(tmp, "probe-")
}

// build runs New → ClassifyInits for the spec and hands the open
// classification to the caller.
func (s buildSpec) build(dir string) (*boosting.Checker, *boosting.InitClassification, error) {
	chk, err := boosting.New(s.protocol, s.n, s.f, s.options(dir)...)
	if err != nil {
		return nil, nil, err
	}
	c, err := chk.ClassifyInits()
	if err != nil {
		return nil, nil, err
	}
	return chk, c, nil
}

// timeBuilds returns the median wall time of reps complete builds
// (New → ClassifyInits → Close), each into a fresh scratch directory.
func timeBuilds(spec buildSpec, tmp string, reps int) (time.Duration, error) {
	var durs []time.Duration
	for i := 0; i < reps; i++ {
		dir, err := spec.scratchDir(tmp)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		_, err = classifyOnce(spanRef{}, spec, dir)
		durs = append(durs, time.Since(start))
		if dir != "" {
			err = errors.Join(err, os.RemoveAll(dir))
		}
		if err != nil {
			return 0, err
		}
	}
	return medianDuration(durs), nil
}

// medianOf times f reps times and returns the median.
func medianOf(reps int, f func() error) (time.Duration, error) {
	var durs []time.Duration
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		durs = append(durs, time.Since(start))
	}
	return medianDuration(durs), nil
}

func perUnit(d time.Duration, units int) float64 { return float64(d) / float64(units) }

// buildLayers attributes one serial build of spec to its layers.
func buildLayers(values layerValues, spec buildSpec, tmp string, reps int, tr *tracer) error {
	buildTime, err := timeBuilds(spec, tmp, reps)
	if err != nil {
		return err
	}

	// One more build, kept open for the replay, with allocation accounting
	// around it.
	dir, err := spec.scratchDir(tmp)
	if err != nil {
		return err
	}
	var before, after, live runtime.MemStats
	// Twice: closed spill stores of the timed builds carry finalizers and
	// outlive the first collection.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	chk, c, err := spec.build(dir)
	if err != nil {
		return err
	}
	defer c.Close()
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.ReadMemStats(&live)

	g := c.Graph
	states, edges := g.Size(), g.Edges()
	values["explore.build_ns_per_state"] = perUnit(buildTime, states)
	values["explore.allocs_per_state"] = float64(after.Mallocs-before.Mallocs) / float64(states)
	values["explore.alloc_bytes_per_state"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(states)
	values["explore.retained_bytes_per_state"] = (float64(live.HeapAlloc) - float64(before.HeapAlloc)) / float64(states)

	// Spill counters are read before the probes add their own reads.
	if st, ok := boosting.GraphSpillStats(g); ok {
		values["explore.spill_bytes_per_state"] = float64(st.SpillBytes) / float64(states)
		values["explore.edge_bytes_per_edge"] = float64(st.EdgeBytes) / float64(edges)
		values["explore.spill_fp_reads"] = float64(st.Reads)
		values["explore.spill_edge_reads"] = float64(st.EdgeReads)
	}

	if err := replayLayers(values, spec, chk.System(), g, buildTime, reps, tr); err != nil {
		return err
	}
	if err := readLayers(values, chk.System(), g, tr); err != nil {
		return err
	}

	// Façade fixed costs, paid on every boostd submission.
	newTime, err := medianOf(reps*5, func() error {
		_, err := boosting.New(spec.protocol, spec.n, spec.f, boosting.WithWorkers(1))
		return err
	})
	if err != nil {
		return err
	}
	fpTime, _ := medianOf(reps*5, func() error {
		chk.CanonicalFingerprint()
		return nil
	})
	values["boosting.new_us"] = float64(newTime) / 1e3
	values["boosting.canonical_fp_us"] = float64(fpTime) / 1e3

	if spec.durable {
		return durableLayers(values, spec, tmp, dir, reps)
	}
	return nil
}

// replayLayers walks every vertex of the finished graph and re-issues what
// the engine called on it — Applicable/Apply per task, Canonical and
// AppendFingerprint per successor, Lookup per successor — one phase at a
// time over a batch of vertices. What the phases do not account for of
// buildTime is the engine's own share: interning fresh states, adjacency,
// level seals, masks and scheduling. The walk is repeated reps times and
// each phase reports its median.
func replayLayers(values layerValues, spec buildSpec, sys *boosting.System, g *boosting.Graph, buildTime time.Duration, reps int, tr *tracer) error {
	var canon *symmetry.Canonicalizer
	if spec.symmetry {
		if spec.protocol != "forward" {
			return fmt.Errorf("no symmetry spec for protocol %q", spec.protocol)
		}
		var err error
		if canon, err = symmetry.New(sys, protocols.ForwardSymmetry(spec.n)); err != nil {
			return err
		}
		values["symmetry.group_order"] = float64(canon.Order())
	}
	var walks [numPhases][]time.Duration
	for rep := 0; rep < reps; rep++ {
		walk, err := replayOnce(canon, sys, g, tr)
		if err != nil {
			return err
		}
		for i, d := range walk {
			walks[i] = append(walks[i], d)
		}
	}
	var t [numPhases]time.Duration
	for i := range t {
		t[i] = medianDuration(walks[i])
	}
	states, edges := g.Size(), g.Edges()
	replayTime := t[phApply] + t[phCanonical] + t[phEncode] + t[phLookup]
	values["system.apply_ns_per_state"] = perUnit(t[phApply], states)
	values["system.append_fp_ns_per_state"] = perUnit(t[phEncode], states)
	values["symmetry.canonical_ns_per_state"] = perUnit(t[phCanonical], states)
	values["explore.lookup_ns_per_edge"] = perUnit(t[phLookup], edges)
	values["explore.state_read_ns_per_state"] = perUnit(t[phRead], states)
	values["explore.residual_ns_per_state"] = perUnit(buildTime-replayTime, states)
	values["explore.replay_coverage"] = float64(replayTime) / float64(buildTime)
	return nil
}

// The phases of a replay walk, in the order the engine runs them per vertex.
const (
	phRead = iota
	phApply
	phCanonical
	phEncode
	phLookup
	numPhases
)

var phaseNames = [numPhases]string{"probe.explore.State", "probe.system.Apply", "probe.symmetry.Canonical",
	"probe.system.AppendFingerprint", "probe.explore.Lookup"}

// replayOnce is one walk over the graph; it returns the time spent in each
// phase.
func replayOnce(canon *symmetry.Canonicalizer, sys *boosting.System, g *boosting.Graph, tr *tracer) (times [numPhases]time.Duration, err error) {
	var (
		ph        [numPhases]phase
		batch     []boosting.State
		succs     []boosting.State
		buf       []byte
		offs      []int
		replayed  int
		replayErr error
	)
	for i := range ph {
		ph[i].name = phaseNames[i]
	}
	states, edges := g.Size(), g.Edges()
	root := tr.root("probe.replay")
	for lo := 0; lo < states; lo += replayBatch {
		hi := min(lo+replayBatch, states)
		ph[phRead].run(root, func() {
			batch = batch[:0]
			for id := lo; id < hi; id++ {
				st, _ := g.State(boosting.StateID(id))
				batch = append(batch, st)
			}
		})
		ph[phApply].run(root, func() {
			succs = succs[:0]
			for _, st := range batch {
				for _, task := range sys.Tasks() {
					if !sys.Applicable(st, task) {
						continue
					}
					succ, _, err := sys.Apply(st, task)
					if err != nil {
						replayErr = err
						return
					}
					succs = append(succs, succ)
				}
			}
		})
		if canon != nil {
			ph[phCanonical].run(root, func() {
				for i, st := range succs {
					succs[i] = canon.Canonical(st)
				}
			})
		}
		ph[phEncode].run(root, func() {
			buf, offs = buf[:0], offs[:0]
			for _, st := range succs {
				offs = append(offs, len(buf))
				buf = sys.AppendFingerprint(buf, st)
			}
			offs = append(offs, len(buf))
		})
		fps := string(buf)
		ph[phLookup].run(root, func() {
			for i := range succs {
				if _, ok := g.Lookup(fps[offs[i]:offs[i+1]]); !ok {
					replayErr = errors.New("replayed successor is not a vertex of the built graph")
					return
				}
			}
		})
		if replayErr != nil {
			return times, replayErr
		}
		replayed += len(succs)
	}
	root.end()
	if replayed != edges {
		return times, fmt.Errorf("replay produced %d transitions, the built graph has %d edges", replayed, edges)
	}
	for i := range ph {
		times[i] = ph[i].total
	}
	return times, nil
}

// readLayers times the finished graph's edge streaming, the fingerprint
// decoder, and an intern.Table fed the graph's own keys.
func readLayers(values layerValues, sys *boosting.System, g *boosting.Graph, tr *tracer) error {
	var (
		edgeRead = phase{name: "probe.explore.EdgesFrom"}
		fpRead   = phase{name: "probe.explore.Fingerprint"}
		parse    = phase{name: "probe.system.ParseFingerprint"}
		internP  = phase{name: "probe.intern.Intern"}
		lookupP  = phase{name: "probe.intern.Lookup"}
		fps      = make([]string, 0, g.Size())
		fpBytes  int
		seen     int
		probeErr error
	)
	states, edges := g.Size(), g.Edges()
	root := tr.root("probe.reads")
	edgeRead.run(root, func() {
		for id := 0; id < states; id++ {
			for range g.EdgesFrom(boosting.StateID(id)) {
				seen++
			}
		}
	})
	fpRead.run(root, func() {
		for id := 0; id < states; id++ {
			fp := g.Fingerprint(boosting.StateID(id))
			fps = append(fps, fp)
			fpBytes += len(fp)
		}
	})
	parse.run(root, func() {
		for _, fp := range fps {
			if _, err := sys.ParseFingerprint(fp); err != nil {
				probeErr = err
				return
			}
		}
	})
	table := intern.NewTable(0)
	internP.run(root, func() {
		for _, fp := range fps {
			table.Intern(fp)
		}
	})
	lookupP.run(root, func() {
		for _, fp := range fps {
			if _, ok := table.Lookup(fp); !ok {
				probeErr = errors.New("interned key not found")
				return
			}
		}
	})
	root.end()
	if probeErr != nil {
		return probeErr
	}
	if seen != edges {
		return fmt.Errorf("EdgesFrom streamed %d edges, the built graph has %d", seen, edges)
	}
	values["explore.edges_read_ns_per_edge"] = perUnit(edgeRead.total, edges)
	values["system.parse_fp_ns_per_state"] = perUnit(parse.total, states)
	values["system.fp_bytes_per_state"] = float64(fpBytes) / float64(states)
	values["intern.intern_ns_per_key"] = perUnit(internP.total, states)
	values["intern.lookup_ns_per_key"] = perUnit(lookupP.total, states)
	return nil
}

// durableLayers measures the storage layer around a committed graph
// directory: what the commit adds to an otherwise identical ephemeral
// spill build (write side) and what reattaching it costs (read side).
func durableLayers(values layerValues, spec buildSpec, tmp, dir string, reps int) error {
	// The commit is a few percent of a build, so the two sides alternate
	// — host drift lands on both — and take three times the usual
	// repetitions.
	ephemeral := spec
	ephemeral.durable, ephemeral.spill = false, true
	var durable, plainSpill []time.Duration
	for i := 0; i < 3*reps; i++ {
		d, err := timeBuilds(spec, tmp, 1)
		if err != nil {
			return err
		}
		p, err := timeBuilds(ephemeral, tmp, 1)
		if err != nil {
			return err
		}
		durable, plainSpill = append(durable, d), append(plainSpill, p)
	}
	values["explore.durable_commit_ms"] = ms(medianDuration(durable) - medianDuration(plainSpill))

	var size int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		size += info.Size()
		return nil
	})
	if err != nil {
		return err
	}
	values["explore.graph_dir_bytes"] = float64(size)

	plain, err := boosting.New(spec.protocol, spec.n, spec.f, boosting.WithWorkers(1))
	if err != nil {
		return err
	}
	openTime, err := medianOf(reps, func() error {
		g, err := plain.OpenGraph(dir)
		if err != nil {
			return err
		}
		return boosting.CloseGraph(g)
	})
	if err != nil {
		return err
	}
	values["explore.open_graph_ms"] = ms(openTime)
	return nil
}
