package boosting

import (
	"context"
	"fmt"

	"github.com/ioa-lab/boosting/internal/explore"
	"github.com/ioa-lab/boosting/internal/service"
)

// config is the resolved option set of a Checker.
type config struct {
	workers   int
	maxStates int
	store     Store
	storeSet  bool
	spillDir  string
	graphDir  string
	progress  ProgressFunc
	ctx       context.Context
	policy    service.SilencePolicy
	rounds    int
	maxRounds int
	skipGraph bool
	symmetry  bool
	// canon is the resolved canonicalizer: non-nil only when symmetry is
	// requested and the protocol declares a symmetry spec.
	canon explore.Canonicalizer
}

// ConflictError reports an option combination that an analysis cannot
// honor — for example WithGraphDir with Refute, which builds several graphs
// where a graph directory holds one. It is returned eagerly, typed, before
// any work is done. errors.As recovers it.
type ConflictError struct {
	// Option is the configured option, e.g. "WithGraphDir(dir)".
	Option string
	// With is the analysis or option it conflicts with, e.g. "Refute".
	With string
	// Reason says why the combination cannot work.
	Reason string
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("boosting: %s conflicts with %s: %s", e.Option, e.With, e.Reason)
}

func defaultConfig() config {
	return config{policy: service.Adversarial}
}

// Option configures a Checker.
type Option func(*config)

// WithWorkers bounds the goroutines an analysis may fan out to over
// independent units — Refute's failure scenarios, RefuteKSet's input
// assignments, RunBatch's runs: 0 (the default) means one per CPU the process
// may use (GOMAXPROCS), 1 none beside the caller's. A graph is always built
// on the calling goroutine. Results are identical for any worker count.
// Negative values are clamped to 0 (the default) — they never reach the
// fan-out sizing.
func WithWorkers(n int) Option { return func(c *config) { c.workers = max(n, 0) } }

// WithMaxStates caps the number of distinct states explored per graph
// build (0 = the engine default, 200000). Exceeding the cap returns a
// *LimitError. Negative values are clamped to 0 (the default) — they never
// masquerade as an already-exceeded budget.
func WithMaxStates(n int) Option { return func(c *config) { c.maxStates = max(n, 0) } }

// Storage options. They compose freely with each other and with every
// backend: all backends produce identical graphs and reports, differing
// only in resident memory and lookup cost.

// WithStore selects the storage backend for graph builds: DenseStore
// (default) or SpillStore. Both keep the vertices in RAM; SpillStore keeps
// the edges in a file. See the Store constants for what each keeps
// resident.
func WithStore(s Store) Option {
	return func(c *config) {
		c.store = s
		c.storeSet = true
	}
}

// WithSpillDir selects the SpillStore backend and places its edge file in
// dir ("" keeps the OS temp directory). The spill store keeps the vertices
// in RAM like the dense store, and the edges — 7–8 per vertex on the
// registry protocols, the larger part of a big graph — as delta-varint
// blocks in an append-only edge file, decoded back on demand, with 12 bytes
// of offset and length per vertex left in RAM. The file is unlinked at
// creation and reclaimed by the kernel when the graph is collected (or
// closed via CloseGraph).
func WithSpillDir(dir string) Option {
	return func(c *config) {
		c.store = SpillStore
		c.spillDir = dir
	}
}

// WithGraphDir makes every graph the Checker builds durable: the spill
// backend's edge file, plus the vertices' canonical fingerprints and an
// index of valence masks and roots, is committed under dir
// behind a versioned, checksummed manifest instead of living in an unlinked
// temp file. Every build explores and commits, replacing whatever graph
// the directory held. Any same-shape candidate can read the directory back
// with Checker.OpenGraph, which decodes every fingerprint back into the
// vertex store; what it reads is this Checker's G(C).
//
// WithGraphDir selects the SpillStore backend; it conflicts with
// WithSpillDir (a durable graph owns its directory's file set) and with an
// explicit non-spill WithStore. Conflicts surface as a typed
// *ConflictError from New, or from the first graph-building method on a
// NewFromSystem checker. One directory holds exactly one graph, so
// Refute — which builds several — rejects the combination too.
func WithGraphDir(dir string) Option {
	return func(c *config) {
		c.graphDir = dir
		if dir != "" && !c.storeSet {
			c.store = SpillStore
		}
	}
}

// validateDurable rejects option combinations the durable graph store
// cannot honor. Called from New, and again from the graph-building
// methods so NewFromSystem checkers (whose constructor cannot return an
// error) fail eagerly and typed.
func (c *config) validateDurable() error {
	if c.graphDir == "" {
		return nil
	}
	if c.spillDir != "" {
		return &ConflictError{
			Option: "WithGraphDir(" + c.graphDir + ")",
			With:   "WithSpillDir(" + c.spillDir + ")",
			Reason: "a durable graph owns its directory's file set; the same build cannot also spill into a second directory",
		}
	}
	if c.store != SpillStore {
		return &ConflictError{
			Option: "WithGraphDir(" + c.graphDir + ")",
			With:   "WithStore",
			Reason: "durable graphs are written and reopened by the spill backend",
		}
	}
	return nil
}

// WithoutWitnesses does nothing. Graphs store no predecessor links any more:
// WitnessPath derives a vertex's path from the edges on first use, so there
// is nothing to drop, and every analysis works with or without it.
//
// Deprecated: leave it out; it configures nothing.
func WithoutWitnesses() Option { return func(*config) {} }

// WithProgress streams per-level exploration reports (states, edges,
// frontier) to fn during every graph build the Checker performs.
func WithProgress(fn ProgressFunc) Option { return func(c *config) { c.progress = fn } }

// WithContext attaches a cancellation context: long-running exploration,
// refutation and batch runs check it mid-level and return ctx.Err()
// promptly once cancelled.
func WithContext(ctx context.Context) Option { return func(c *config) { c.ctx = ctx } }

// WithSilencePolicy sets whether services past their resilience bound
// exercise the right to fall silent (default Adversarial). Protocols whose
// builders take no policy ignore it.
func WithSilencePolicy(p SilencePolicy) Option { return func(c *config) { c.policy = p } }

// WithRounds sets the round parameter of round-structured protocols
// (floodset-p, fdboost, evperfect): the number of flooding rounds. 0 (the
// default) picks the protocol's natural value (see Protocols).
func WithRounds(r int) Option { return func(c *config) { c.rounds = r } }

// WithMaxRounds caps fair scheduled runs inside Refute/RefuteKSet (0 = the
// engine default, 10000 rounds). Runs started directly via Run take their
// cap from RunConfig.MaxRounds instead.
func WithMaxRounds(r int) Option { return func(c *config) { c.maxRounds = r } }

// WithSymmetry enables symmetry-reduced exploration: every graph build the
// Checker performs canonicalizes states modulo process renaming before
// interning, so isomorphic states — identical up to a permutation of
// interchangeable process identities — collapse into one vertex. The
// quotient graph is smaller by up to n! while preserving every verdict:
// valence classifications, refutation outcomes and hook existence are the
// same as on the full graph (decisions are compared by value, never by
// process identity), and all store backends and worker counts still
// produce identical graphs to each other.
//
// The reduction applies to registry protocols that declare a symmetry
// group (forward, tob, registervote, setboost). Families whose states
// embed process ids beyond the declared renaming rules — the
// failure-detector families, whose graph phases the refuter skips anyway —
// and systems wrapped via NewFromSystem explore unreduced.
func WithSymmetry() Option { return func(c *config) { c.symmetry = true } }

// WithoutGraphAnalysis makes Refute skip the failure-free graph phases
// (safety sweep, Lemma 4, hook search) and go straight to the failure
// scenarios. Required for custom systems (NewFromSystem) whose failure
// detectors push suspicion responses unconditionally: their failure-free
// reachable graph is infinite. Registry families that need this are marked
// SkipsGraphAnalysis and get it automatically.
func WithoutGraphAnalysis() Option { return func(c *config) { c.skipGraph = true } }

// buildOptions lowers the config to engine build options.
func (c *config) buildOptions() explore.BuildOptions {
	return explore.BuildOptions{
		Workers:   c.workers,
		MaxStates: c.maxStates,
		Store:     c.store,
		SpillDir:  c.spillDir,
		GraphDir:  c.graphDir,
		Symmetry:  c.canon,
		Progress:  c.progress,
		Ctx:       c.ctx,
	}
}
