package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/ioa-lab/boosting"
)

// env is what one set-up of a workload owns: the golden table it loaded,
// a private scratch directory and the seeded source its inputs come from.
type env struct {
	exp expectedTable
	tmp string
	rng *rand.Rand
}

// opResult is one request-to-verdict unit: how long the caller waited and
// whether the typed verdict matched expected.json.
type opResult struct {
	dur time.Duration
	err error
}

// instance is a set-up workload. round runs one closed-loop round — every
// client issues one op and waits for it — and returns the ops plus the
// round's timed wall clock (server start/stop and scratch-directory
// housekeeping are outside it).
type instance interface {
	round(tr *tracer) ([]opResult, time.Duration)
	// layers reports the layer metrics the instance itself observed since
	// the previous call (the server.* family), and forgets them.
	layers(values layerValues)
	close() error
}

// buildSpec names one graph build through the façade. It is both what the
// build workloads run as their op and what the traced run's layer probes
// rebuild to attribute cost.
type buildSpec struct {
	protocol  string
	n, f      int
	workers   int
	symmetry  bool
	noWitness bool
	// durable builds commit under WithGraphDir (which implies the spill
	// store); spill builds use an ephemeral spill store.
	durable bool
	spill   bool
}

// options lowers the spec to façade options; dir is the graph directory
// (durable) or spill directory (spill) and is ignored otherwise.
func (s buildSpec) options(dir string) []boosting.Option {
	opts := []boosting.Option{boosting.WithWorkers(s.workers)}
	if s.symmetry {
		opts = append(opts, boosting.WithSymmetry())
	}
	if s.noWitness {
		opts = append(opts, boosting.WithoutWitnesses())
	}
	switch {
	case s.durable:
		opts = append(opts, boosting.WithGraphDir(dir))
	case s.spill:
		opts = append(opts, boosting.WithStore(boosting.SpillStore), boosting.WithSpillDir(dir))
	}
	return opts
}

// workload is one entry of BENCHMARK.json's workloads.
type workload struct {
	name string
	why  string
	// minCPUs gates the run: a workload that needs parallel hardware
	// refuses to record a number without it.
	minCPUs int
	// build is the graph build at the workload's core: the op of the
	// classify workloads, and — made serial — the build whose layers the
	// traced run attributes for every workload.
	build buildSpec
	open  func(e *env, w *workload) (instance, error)
	// probes, when set, adds the workload's own layer probes to the
	// traced run.
	probes func(values layerValues, cfg runConfig, e *env) error
}

var workloads = []workload{
	{
		name:    "classify-n5",
		why:     "one large dense graph (14754 states) on two workers: per-state engine cost (apply, encode, intern, barrier, valence fixpoint) is nearly all the work",
		minCPUs: 2,
		build:   buildSpec{protocol: "forward", n: 5, workers: 2},
		open:    openBuild,
	},
	{
		name:   "refute-n4",
		why:    "the boostcheck path: 16 small serial safety-sweep builds, classification, hook search and failure scenarios, so per-build fixed costs and non-BFS phases dominate",
		build:  buildSpec{protocol: "forward", n: 4, workers: 1},
		open:   openRefute,
		probes: refuteLayers,
	},
	{
		name:  "quotient-durable-n6",
		why:   "symmetry canonicalization, spill store and durable commit (the storage write side) do most of the work; dense store, intern table and witnesses are bypassed",
		build: buildSpec{protocol: "forward", n: 6, workers: 1, symmetry: true, noWitness: true, durable: true},
		open:  openBuild,
	},
	{
		name:  "boostd-session",
		why:   "two clients against an in-process boostd: HTTP/JSON, validation, canonical fingerprint, result cache hits, SSE replay, pool, and the delta tier (the storage read side)",
		build: buildSpec{protocol: "forward", n: sessionN, workers: 1, durable: true},
		open:  openSession,
	},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// soloInstance is a one-client workload: a round is one op.
type soloInstance struct {
	op func(tr *tracer) opResult
}

func (s soloInstance) round(tr *tracer) ([]opResult, time.Duration) {
	r := s.op(tr)
	return []opResult{r}, r.dur
}

func (soloInstance) layers(layerValues) {}

func (soloInstance) close() error { return nil }

// classifyVerdict renders a Lemma 4 classification in expected.json's terms.
func classifyVerdict(c *boosting.InitClassification) verdict {
	v := verdict{States: c.Graph.Size(), Edges: c.Graph.Edges()}
	for _, val := range c.Valences {
		v.Valences = append(v.Valences, val.String())
	}
	idx := c.BivalentIndex
	v.BivalentIndex = &idx
	return v
}

// closeGraph closes a classification or report under a "Graph.Close" span,
// joining the outcome into *err. (Named for boostvet's graphclose
// analyzer, which accepts a closeGraph statement as the release.)
func closeGraph(c interface{ Close() error }, root spanRef, err *error) {
	sp := root.child("Graph.Close")
	*err = errors.Join(*err, c.Close())
	sp.end()
}

// classifyOnce is the build op: New → ClassifyInits → Close, one span each.
func classifyOnce(root spanRef, spec buildSpec, dir string) (verdict, error) {
	sp := root.child("boosting.New")
	chk, err := boosting.New(spec.protocol, spec.n, spec.f, spec.options(dir)...)
	sp.end()
	if err != nil {
		return verdict{}, err
	}
	sp = root.child("Checker.ClassifyInits")
	c, err := chk.ClassifyInits()
	sp.end()
	if err != nil {
		return verdict{}, err
	}
	v := classifyVerdict(c)
	closeGraph(c, root, &err)
	return v, err
}

// openBuild sets up a classify workload. A durable spec commits every op
// into a fresh directory (made and removed outside the timed interval)
// and must find the manifest there afterwards.
func openBuild(e *env, w *workload) (instance, error) {
	want, err := e.exp.get(w.name)
	if err != nil {
		return nil, err
	}
	spec := w.build
	op := func(tr *tracer) opResult {
		dir := ""
		if spec.durable {
			d, err := os.MkdirTemp(e.tmp, "graph-")
			if err != nil {
				return opResult{err: err}
			}
			dir = d
		}
		start := time.Now()
		root := tr.op()
		got, err := classifyOnce(root, spec, dir)
		if err == nil && spec.durable && !boosting.HasGraph(dir) {
			err = fmt.Errorf("no committed manifest in %s", dir)
		}
		if err == nil {
			err = want.check(got)
		}
		root.end()
		res := opResult{dur: time.Since(start), err: err}
		if spec.durable {
			res.err = errors.Join(res.err, os.RemoveAll(dir))
		}
		return res
	}
	return soloInstance{op: op}, nil
}

// refuteOnce is the boostcheck op: New → Refute → Close.
func refuteOnce(root spanRef, spec buildSpec, claimed int) (verdict, error) {
	sp := root.child("boosting.New")
	chk, err := boosting.New(spec.protocol, spec.n, spec.f, spec.options("")...)
	sp.end()
	if err != nil {
		return verdict{}, err
	}
	sp = root.child("Checker.Refute")
	report, err := chk.Refute(claimed)
	sp.end()
	if err != nil {
		return verdict{}, err
	}
	var v verdict
	if report.Inits != nil {
		v = classifyVerdict(report.Inits)
	}
	violated := report.Violated()
	v.Violated = &violated
	sum := sha256.Sum256([]byte(report.String()))
	v.ReportSha256 = hex.EncodeToString(sum[:])
	closeGraph(report, root, &err)
	return v, err
}

func openRefute(e *env, w *workload) (instance, error) {
	want, err := e.exp.get(w.name)
	if err != nil {
		return nil, err
	}
	spec := w.build
	op := func(tr *tracer) opResult {
		start := time.Now()
		root := tr.op()
		got, err := refuteOnce(root, spec, 1)
		if err == nil {
			err = want.check(got)
		}
		root.end()
		return opResult{dur: time.Since(start), err: err}
	}
	return soloInstance{op: op}, nil
}
