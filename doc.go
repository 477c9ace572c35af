// Package boosting is an executable framework for Attie, Guerraoui,
// Kuznetsov, Lynch and Rajsbaum, "The Impossibility of Boosting Distributed
// Service Resilience" (ICDCS 2005; Information and Computation 209, 2011).
//
// The framework implements the paper's formal model — I/O automata,
// sequential and service types, canonical f-resilient atomic objects,
// failure-oblivious services and general (failure-aware) services, and the
// composed systems of processes, services and registers — and mechanizes the
// proof machinery: valence classification, bivalent initializations, the
// execution graph G(C), hook search, state similarity, and a refuter that
// extracts concrete counterexample executions from candidate boosting
// protocols. The paper's positive constructions (the Section 4 k-set
// consensus boost and the Section 6.3 failure-detector boost) are
// implemented and verified as well.
//
// This package is the public API: a protocol registry (Protocols, New), a
// Checker façade over the pipeline (Explore, ClassifyInits, FindHook,
// Refute, RefuteKSet, Run) configured by functional options (WithWorkers,
// WithMaxStates, WithStore, WithSymmetry, WithProgress, WithContext, …),
// two store backends (edges in RAM, or spilled to an edge file; vertices in
// RAM either way), and the engine's result types re-exported under stable
// names. The runnable
// Example functions in example_test.go show the core loops.
//
// See README.md for an overview, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the reproduced results.
package boosting
