package boosting

import (
	"github.com/ioa-lab/boosting/internal/check"
	"github.com/ioa-lab/boosting/internal/explore"
	"github.com/ioa-lab/boosting/internal/ioa"
	"github.com/ioa-lab/boosting/internal/protocols"
	"github.com/ioa-lab/boosting/internal/service"
	"github.com/ioa-lab/boosting/internal/system"
)

// The façade's result and model types are aliases of the engine's: the
// public names are the stable API surface (guarded by the apidiff CI gate),
// while reports, witness renderings and CLI output stay byte-for-byte what
// the engine produces. Consumers never import the internal packages.

// Model types.
type (
	// System is a composed system C of processes, services and registers.
	System = system.System
	// State is one global state of a System (copy-on-write; values are
	// cheap to hand around).
	State = system.State
	// Action is one I/O-automaton action; Task a schedulable task.
	Action = ioa.Action
	// Task is a schedulable task of the composed automaton.
	Task = ioa.Task
	// Execution is a finite executed prefix: alternating states and steps.
	Execution = ioa.Execution
	// SilencePolicy says whether a service past its resilience bound
	// exercises its right to fall silent.
	SilencePolicy = service.SilencePolicy
)

// Silence policies.
const (
	// Adversarial services fall silent as soon as they are permitted to —
	// the worst case the impossibility proofs quantify over.
	Adversarial = service.Adversarial
	// Benign services never exercise the right to fall silent.
	Benign = service.Benign
)

// Graph types: the execution graph G(C) of Section 3.3.
type (
	// StateID is the dense index of a vertex of G(C), assigned in BFS
	// discovery order — identical for any worker count and store backend.
	StateID = explore.StateID
	// Graph is (a finite fragment of) G(C).
	Graph = explore.Graph
	// Edge is one labelled transition of G(C).
	Edge = explore.Edge
	// Valence classifies a vertex by the decisions reachable from it.
	Valence = explore.Valence
	// Progress is one streaming per-level exploration report.
	Progress = explore.Progress
	// ProgressFunc receives streaming Progress reports during exploration.
	ProgressFunc = explore.ProgressFunc
	// Store selects where a build keeps the edges of G(C): in RAM or in a
	// file. The vertices are kept in RAM either way.
	Store = explore.StoreKind
)

// Valences.
const (
	Unvalent   = explore.Unvalent
	ZeroValent = explore.ZeroValent
	OneValent  = explore.OneValent
	Bivalent   = explore.Bivalent
)

// Store backends. Both keep the vertices in RAM the same way: the
// representative states and a pointer-free index keyed on each vertex's tuple
// of component-cell indices (4 bytes per process and service); canonical
// fingerprints are encoded on demand. DenseStore keeps the edges in RAM too,
// as 8-byte packed edges. SpillStore moves them to an append-only edge file
// of delta-varint successor blocks, keeping 12 bytes of offset and length
// per vertex in RAM, so the edge relation — most of a large graph — leaves
// the heap. Both produce identical graphs.
const (
	DenseStore = explore.StoreDense
	SpillStore = explore.StoreSpill
)

// SpillStats is the observability face of the SpillStore backend: vertex
// count, fingerprint-file size of a durable graph, fingerprints decoded on
// reopen, edge-file size and edge-block read count.
type SpillStats = explore.SpillStats

// GraphSpillStats reports the spill-file statistics of a graph built with
// SpillStore (ok == false for every other backend).
func GraphSpillStats(g *Graph) (SpillStats, bool) { return explore.GraphSpillStats(g) }

// CloseGraph deterministically releases any external resources held by a
// graph's storage backend — the SpillStore's edge-file descriptor — and is a
// no-op (nil) for the in-memory backend. The graph must not be used afterwards. Optional: an
// unclosed spill graph is reclaimed when the garbage collector runs its
// finalizers, but callers that churn through many spill-backed graphs
// should close each one rather than let descriptors accumulate against the
// process's fd limit.
func CloseGraph(g *Graph) error { return explore.CloseGraphStore(g) }

// ManifestError reports a durable graph directory (WithGraphDir,
// Checker.OpenGraph) that cannot be opened — missing, damaged, stale-format
// or shape-mismatched. Recover it with errors.As.
type ManifestError = explore.ManifestError

// HasGraph reports whether dir holds a committed durable graph manifest,
// without validating it: the cheap "is there anything here" probe ahead
// of Checker.OpenGraph.
func HasGraph(dir string) bool { return explore.HasManifest(dir) }

// Proof-machinery result types.
type (
	// InitClassification is the Lemma 4 sweep over the monotone
	// initializations.
	InitClassification = explore.InitClassification
	// Hook is the Fig. 2 pattern located by the Fig. 3 construction.
	Hook = explore.Hook
	// Divergence certifies an infinite fair bivalent execution.
	Divergence = explore.Divergence
	// HookSearchResult is the Fig. 3 outcome: a Hook or a Divergence.
	HookSearchResult = explore.HookSearchResult
	// Report is the outcome of a refutation.
	Report = explore.Report
	// Certificate is one concrete counterexample execution.
	Certificate = explore.Certificate
	// ViolationKind classifies a certificate by the violated condition.
	ViolationKind = explore.ViolationKind
)

// Violation kinds.
const (
	KindNone        = explore.KindNone
	KindAgreement   = explore.KindAgreement
	KindValidity    = explore.KindValidity
	KindTermination = explore.KindTermination
)

// Run types: scheduled executions of a system.
type (
	// RunConfig configures a scheduled run.
	RunConfig = explore.RunConfig
	// RunResult reports a scheduled run.
	RunResult = explore.RunResult
	// FailureEvent schedules a fail_i input before a given round.
	FailureEvent = explore.FailureEvent
)

// Errors.
var (
	// ErrStateExplosion is the sentinel matched by errors.Is when
	// exploration exceeds its vertex budget.
	ErrStateExplosion = explore.ErrStateExplosion
	// ErrNotBivalent reports a hook search from a non-bivalent root.
	ErrNotBivalent = explore.ErrNotBivalent
)

// LimitError is the typed form of ErrStateExplosion: errors.As(err, &le)
// recovers the budget and the partial exploration count.
type LimitError = explore.LimitError

// Property checkers (Section 2.2.4 and Appendix B), re-exported so
// verification code stays on the façade.

// ConsensusRun bundles what the consensus conditions quantify over.
type ConsensusRun = check.ConsensusRun

// CheckConsensus checks agreement, validity and modified termination.
func CheckConsensus(run ConsensusRun) error { return check.Consensus(run) }

// CheckKSetConsensus checks k-agreement, validity and modified termination.
func CheckKSetConsensus(run ConsensusRun, k int) error { return check.KSetConsensus(run, k) }

// CheckTotalOrder checks that all endpoints saw a single delivery order.
func CheckTotalOrder(deliveries map[int][]string) error { return check.TotalOrder(deliveries) }

// TOBDeliveries extracts per-endpoint delivery sequences of a
// totally-ordered-broadcast service from an execution.
func TOBDeliveries(exec Execution, svc string) map[int][]string {
	return check.TOBDeliveries(exec, svc)
}

// CheckFDAccuracy checks that no perfect failure detector ever suspected a
// process that was live at report time.
func CheckFDAccuracy(exec Execution) error { return check.FDAccuracy(exec) }

// AuditFairness checks the I/O-automata fairness condition on an executed
// prefix (window 0 = one full round).
func AuditFairness(sys *System, exec Execution, window int) error {
	return explore.AuditFairness(sys, exec, window)
}

// SomeSimilarity reports a component at which two states are similar in the
// Section 3.5 sense (a process "Pj" under j-similarity, a service index
// under k-similarity), if any.
func SomeSimilarity(sys *System, s0, s1 State) (string, bool) {
	return explore.SomeSimilarity(sys, s0, s1)
}

// MonotoneAssignment returns the input assignment of the Lemma 4
// initialization α_i: the first i processes receive "1", the rest "0".
func MonotoneAssignment(sys *System, i int) map[int]string {
	return explore.MonotoneAssignment(sys, i)
}

// FormatTrace renders an external action trace on one line.
func FormatTrace(actions []Action) string { return ioa.FormatTrace(actions) }

// VarSuspects is the process variable in which the bundled
// detector-consuming programs accumulate suspected process IDs.
const VarSuspects = protocols.VarSuspects
