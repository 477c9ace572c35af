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
	// Store selects the vertex storage backend of G(C).
	Store = explore.StoreKind
	// VertexStore is the vertex face of the storage seam: keying, the dedup
	// index, representative states and optional predecessor links.
	VertexStore = explore.VertexStore
	// AdjacencyStore is the adjacency face of the storage seam: edges are
	// recorded as discovered, sealed at level barriers, and streamed back
	// as an iterator, so backends keep them in slices or on disk.
	AdjacencyStore = explore.AdjacencyStore
	// StateStore is the full storage seam behind Graph: the vertex face
	// plus the adjacency face.
	StateStore = explore.StateStore
)

// Valences.
const (
	Unvalent   = explore.Unvalent
	ZeroValent = explore.ZeroValent
	OneValent  = explore.OneValent
	Bivalent   = explore.Bivalent
)

// Store backends. DenseStore keeps the graph in RAM: the representative
// states, a pointer-free index keyed on each vertex's tuple of component-cell
// indices (4 bytes per process and service) and 8-byte packed edges;
// canonical fingerprints are encoded on demand. SpillStore moves fingerprints
// and representative states to an append-only spill file (TLC-style
// fingerprint file) and adjacency to a second append-only edge file of
// delta-varint successor blocks, keeping only 16 hash bytes plus two file
// offsets per vertex in RAM. Both produce identical graphs — the dense index
// compares keys exactly, and the spill store's hash collisions are audited
// and resolved, never silently merged.
const (
	DenseStore = explore.StoreDense
	SpillStore = explore.StoreSpill
)

// StoreCollisions reports the audited hash-collision count of a graph's
// backend (always 0 for DenseStore).
func StoreCollisions(g *Graph) int { return explore.StoreCollisions(g) }

// SpillStats is the observability face of the SpillStore backend: vertex
// and resident counts, spill-file size, on-demand read count and the
// audited collision count.
type SpillStats = explore.SpillStats

// GraphSpillStats reports the spill-file statistics of a graph built with
// SpillStore (ok == false for every other backend).
func GraphSpillStats(g *Graph) (SpillStats, bool) { return explore.GraphSpillStats(g) }

// CloseGraph deterministically releases any external resources held by a
// graph's storage backend — the SpillStore descriptors for both the
// fingerprint file and the edge file — and is a no-op (nil) for the
// in-memory backends. The graph must not be used afterwards. Optional: an
// unclosed spill graph is reclaimed when the garbage collector runs its
// finalizers, but callers that churn through many spill-backed graphs
// should close each one rather than let descriptors accumulate against the
// process's fd limit.
func CloseGraph(g *Graph) error { return explore.CloseGraphStore(g) }

// Durable graph store types (WithGraphDir, Checker.OpenGraph,
// Checker.ClassifyReopened).
type (
	// Manifest describes one committed durable graph directory: format
	// version, shape and full-identity fingerprints, the build-option
	// tuple, graph counts, and the lengths and checksums binding the data
	// files. Treat returned manifests as read-only.
	Manifest = explore.Manifest
	// ManifestError reports a durable graph directory that cannot be
	// opened — missing, damaged, stale-format or identity-mismatched.
	// Recover it with errors.As.
	ManifestError = explore.ManifestError
)

// GraphManifest returns the manifest of a durable graph — one built
// under WithGraphDir or reopened via Checker.OpenGraph — with ok == false
// for ephemeral graphs.
func GraphManifest(g *Graph) (*Manifest, bool) { return explore.GraphManifest(g) }

// GraphDir returns the durable directory a graph was committed to or
// reopened from ("" for ephemeral graphs).
func GraphDir(g *Graph) string { return explore.GraphDirOf(g) }

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
	// SimilarityOptions configures the Section 3.5 similarity notions.
	SimilarityOptions = explore.SimilarityOptions
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
func SomeSimilarity(sys *System, s0, s1 State, opt SimilarityOptions) (string, bool) {
	return explore.SomeSimilarity(sys, s0, s1, opt)
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
