package boosting

import (
	"github.com/ioa-lab/boosting/internal/codec"
	"github.com/ioa-lab/boosting/internal/explore"
)

// Checker is the façade over the paper's pipeline on one candidate system:
// build the failure-free execution graph G(C) (Section 3.3), classify
// initializations by valence (Lemma 4), run the Fig. 3 hook construction
// (Lemma 5), and refute boosting claims by extracting concrete
// counterexample executions (Theorems 2, 9 and 10). A Checker is cheap; it
// holds the immutable system and the resolved options, and every method is
// safe for concurrent use.
type Checker struct {
	sys       *System
	cfg       config
	skipGraph bool
	// canon is the family's symmetry canonicalizer, resolved eagerly when
	// the registry declares a spec — independent of WithSymmetry, which
	// separately routes it into the exploration engines via cfg.canon. It
	// backs the canonical-identity methods, so renamed-isomorphic states
	// map to one fingerprint even on unreduced checkers. nil for families
	// without a spec and for NewFromSystem checkers.
	canon explore.Canonicalizer
}

// System returns the composed system under analysis.
func (c *Checker) System() *System { return c.sys }

// Explore builds (a finite fragment of) G(C) from the initialization given
// by inputs: the failure-free closure of the initialized state under all
// applicable tasks, with valences computed. Honors the Checker's state
// budget, store backend, progress and context options. On a durable
// checker (WithGraphDir) the graph is committed to the graph directory.
func (c *Checker) Explore(inputs map[int]string) (*Graph, error) {
	if err := c.cfg.validateDurable(); err != nil {
		return nil, err
	}
	root, err := explore.ApplyInputs(c.sys, inputs)
	if err != nil {
		return nil, err
	}
	return explore.BuildGraph(c.sys, []State{root}, c.cfg.buildOptions())
}

// ClassifyInits performs the Lemma 4 sweep: build G(C) from all n+1
// monotone initializations and classify each root by valence. On a
// durable checker (WithGraphDir) the shared graph is committed to the
// graph directory.
func (c *Checker) ClassifyInits() (*InitClassification, error) {
	if err := c.cfg.validateDurable(); err != nil {
		return nil, err
	}
	return explore.ClassifyInits(c.sys, c.cfg.buildOptions())
}

// OpenGraph reattaches a committed durable graph directory — one written
// by a WithGraphDir build — as a read-only graph, without exploring a
// state. The Checker's system must be shape-compatible with the system
// the graph was built from (same processes and service structure; the
// programs, resilience and silence policy may differ), which is what lets
// it decode the stored states. The reopened graph is the *builder's* G(C):
// it is this candidate's only when the two have the same failure-free
// transition relation, and nothing here checks that. Validation failures
// are typed *ManifestError values. Close the graph with CloseGraph.
func (c *Checker) OpenGraph(dir string) (*Graph, error) {
	return explore.OpenGraph(c.sys, dir)
}

// FindHook runs the Fig. 3 round-robin construction from a bivalent vertex
// of g (typically a bivalent root from ClassifyInits), yielding a hook or a
// divergence certificate. It honors the Checker's WithContext: a cancelled
// context stops the construction mid-scan.
func (c *Checker) FindHook(g *Graph, root StateID) (HookSearchResult, error) {
	return explore.FindHookCtx(c.cfg.ctx, g, root)
}

// Refute analyses the candidate's claim to tolerate the given number of
// process failures: the exhaustive failure-free safety sweep, the Lemma 4
// classification, the Fig. 3 hook search, and the failure scenarios of the
// impossibility proofs. For registry families with infinite failure-free
// graphs the graph phases are skipped automatically.
func (c *Checker) Refute(claimed int) (*Report, error) {
	if err := c.durableConflict("Refute"); err != nil {
		return nil, err
	}
	return explore.Refute(c.sys, claimed, c.refuteOptions())
}

// RefuteKSet is the k-set-consensus refuter: at most k distinct decisions
// instead of full agreement (Section 4's boundary).
func (c *Checker) RefuteKSet(k, claimed int) (*Report, error) {
	if err := c.durableConflict("RefuteKSet"); err != nil {
		return nil, err
	}
	return explore.RefuteKSet(c.sys, k, claimed, c.refuteOptions())
}

// durableConflict rejects the refuters on a durable checker: a graph
// directory holds exactly one committed graph, and a refutation builds
// several (the classification sweep plus scenario graphs). Durable
// storage composes with Explore and ClassifyInits, which build one.
func (c *Checker) durableConflict(method string) error {
	if c.cfg.graphDir == "" {
		return nil
	}
	if err := c.cfg.validateDurable(); err != nil {
		return err
	}
	return &ConflictError{
		Option: "WithGraphDir(" + c.cfg.graphDir + ")",
		With:   method,
		Reason: "a durable graph directory holds exactly one committed graph; refutations build several — use ClassifyInits or Explore with durable storage",
	}
}

func (c *Checker) refuteOptions() explore.RefuteOptions {
	return explore.RefuteOptions{
		Build:             c.cfg.buildOptions(),
		MaxRounds:         c.cfg.maxRounds,
		SkipGraphAnalysis: c.skipGraph,
	}
}

// CanonicalFingerprint returns the symmetry-aware canonical identity of the
// configured system: a structural encoding of its components — process
// count, and per service (in sorted index order) the index, type name,
// class, initial value, resilience, silence policy and endpoint count —
// followed by the canonicalized fingerprints of the n+1 monotone
// initialization roots. Two checkers over the same candidate collide even
// when they were built with different engine options (workers, store
// backend, symmetry reduction), while distinct n, f, silence policy
// or round parameters produce distinct identities: n changes the component
// count, f the declared resilience, the policy the per-service policy
// field, and the round parameter the round-register set.
//
// For families that declare a symmetry group the root states are
// canonicalized modulo process renaming whether or not WithSymmetry is
// configured, so renamed-but-isomorphic identities collide. This is the
// building block of result caches keyed by candidate identity (the boostd
// server's cache, incremental re-exploration): append the analysis
// parameters that affect the verdict and the key is complete.
func (c *Checker) CanonicalFingerprint() []byte {
	dst := append([]byte(nil), "boosting-id-v1"...)
	dst = append(dst, '[')
	dst = codec.AppendInt(dst, len(c.sys.ProcessIDs()))
	for _, k := range c.sys.ServiceIDs() {
		sv := c.sys.Service(k)
		dst = append(dst, '(')
		dst = codec.AppendAtom(dst, sv.Index())
		dst = codec.AppendAtom(dst, sv.Type().Name)
		dst = codec.AppendInt(dst, int(sv.Type().Class))
		dst = codec.AppendAtom(dst, sv.Type().Initial)
		dst = codec.AppendInt(dst, sv.Resilience())
		dst = codec.AppendInt(dst, int(sv.Policy()))
		dst = codec.AppendInt(dst, len(sv.Endpoints()))
		dst = append(dst, ')')
	}
	dst = append(dst, ']')
	n := len(c.sys.ProcessIDs())
	for i := 0; i <= n; i++ {
		// Init only fails for unknown process ids; the monotone assignments
		// range over the system's own, so the error path is unreachable.
		st, err := explore.ApplyInputs(c.sys, explore.MonotoneAssignment(c.sys, i))
		if err != nil {
			dst = codec.AppendAtom(dst, err.Error())
			continue
		}
		if c.canon != nil {
			st = c.canon.Canonical(st)
		}
		dst = append(dst, '[')
		dst = c.sys.AppendFingerprint(dst, st)
		dst = append(dst, ']')
	}
	return dst
}

// CanonicalRootFingerprint returns the canonical fingerprint of the root
// state reached by delivering the given input assignment to a fresh initial
// state — the identity of one initialized run of the candidate. For
// families with a declared symmetry group the root is canonicalized modulo
// process renaming (independent of WithSymmetry), so input assignments that
// differ only by a renaming of interchangeable processes — isomorphic
// initialized systems — return identical fingerprints. Combine with
// CanonicalFingerprint to key per-initialization results (the boostd
// server's explore jobs) by candidate identity.
func (c *Checker) CanonicalRootFingerprint(inputs map[int]string) ([]byte, error) {
	root, err := explore.ApplyInputs(c.sys, inputs)
	if err != nil {
		return nil, err
	}
	if c.canon != nil {
		root = c.canon.Canonical(root)
	}
	return c.sys.AppendFingerprint(nil, root), nil
}

// Run executes the system under the canonical fair round-robin schedule:
// inputs first, then rounds in which every task gets one turn. The run
// stops at modified termination, at a provable divergence, or at
// RunConfig.MaxRounds.
func (c *Checker) Run(cfg RunConfig) (RunResult, error) {
	return explore.RoundRobin(c.sys, cfg)
}

// RunFrom continues the canonical fair schedule from an arbitrary state
// (inputs and failures already delivered); the inputs map only feeds the
// termination condition. The Checker's WithMaxRounds bounds the run.
func (c *Checker) RunFrom(st State, inputs map[int]string) (RunResult, error) {
	return explore.RoundRobinFrom(c.sys, st, inputs, c.cfg.maxRounds)
}

// RunRandom executes the system under a seeded random schedule for at most
// the given number of steps. Random schedules are not fair in any finite
// prefix; use them for property bashing, not liveness verdicts.
func (c *Checker) RunRandom(cfg RunConfig, seed int64, steps int) (RunResult, error) {
	return explore.Random(c.sys, cfg, seed, steps)
}

// RunBatch executes every configuration under the canonical fair schedule
// across the Checker's workers, honoring its context; results come back in
// input order and are identical to one-by-one runs. Per-step execution
// traces are dropped — use Run when the trace is needed.
func (c *Checker) RunBatch(cfgs []RunConfig) ([]RunResult, error) {
	return explore.RunBatchCtx(c.cfg.ctx, c.sys, cfgs, c.cfg.workers)
}
