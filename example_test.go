package boosting_test

import (
	"fmt"

	"github.com/ioa-lab/boosting"
)

// Build a registry candidate, run it under the canonical fair schedule and
// check the consensus conditions — the package's minimal end-to-end loop.
func ExampleNew() {
	chk, err := boosting.New("forward", 2, 1) // wait-free object: a correct system
	if err != nil {
		panic(err)
	}
	inputs := map[int]string{0: "0", 1: "1"}
	res, err := chk.Run(boosting.RunConfig{Inputs: inputs})
	if err != nil {
		panic(err)
	}
	fmt.Println("decisions:", res.Decisions)
	fmt.Println("consensus:", boosting.CheckConsensus(boosting.ConsensusRun{
		Inputs: inputs, Decisions: res.Decisions, Done: res.Done,
	}) == nil)
	// Output:
	// decisions: map[0:0 1:0]
	// consensus: true
}

// The impossibility pipeline: a 0-resilient object claiming 1-resilient
// consensus is refuted with a concrete counterexample execution.
func ExampleChecker_Refute() {
	chk, err := boosting.New("forward", 2, 0)
	if err != nil {
		panic(err)
	}
	report, err := chk.Refute(1)
	if err != nil {
		panic(err)
	}
	fmt.Println("violated:", report.Violated())
	fmt.Println("kind:", report.Primary().Kind)
	// Output:
	// violated: true
	// kind: termination
}

// Lemma 4 on a concrete candidate: the monotone initializations are
// 0-valent, bivalent, 1-valent — the bivalent one seeds the hook search.
func ExampleChecker_ClassifyInits() {
	chk, err := boosting.New("forward", 2, 0)
	if err != nil {
		panic(err)
	}
	inits, err := chk.ClassifyInits()
	if err != nil {
		panic(err)
	}
	for i, v := range inits.Valences {
		fmt.Printf("alpha_%d: %v\n", i, v)
	}
	fmt.Println("bivalent index:", inits.BivalentIndex)
	// Output:
	// alpha_0: 0-valent
	// alpha_1: bivalent
	// alpha_2: 1-valent
	// bivalent index: 1
}

// Streaming progress: every BFS level reports cumulative states and edges
// plus the next frontier — identical for any worker count and store.
func ExampleWithProgress() {
	var last boosting.Progress
	chk, err := boosting.New("forward", 2, 0,
		boosting.WithWorkers(1),
		boosting.WithProgress(func(p boosting.Progress) { last = p }))
	if err != nil {
		panic(err)
	}
	g, err := chk.Explore(map[int]string{0: "0", 1: "1"})
	if err != nil {
		panic(err)
	}
	fmt.Printf("levels: %d\n", last.Level+1)
	fmt.Printf("final: %d states, %d edges (graph: %d, %d)\n",
		last.States, last.Edges, g.Size(), g.Edges())
	// Output:
	// levels: 9
	// final: 34 states, 94 edges (graph: 34, 94)
}

// The spill store: the same graph with vertices and edges on disk. Both
// stores assign identical StateIDs, so results can be compared ID-for-ID.
func ExampleWithStore() {
	inputs := map[int]string{0: "0", 1: "1"}
	dense, err := boosting.New("forward", 2, 0, boosting.WithStore(boosting.DenseStore))
	if err != nil {
		panic(err)
	}
	spilled, err := boosting.New("forward", 2, 0, boosting.WithStore(boosting.SpillStore))
	if err != nil {
		panic(err)
	}
	g1, err := dense.Explore(inputs)
	if err != nil {
		panic(err)
	}
	g2, err := spilled.Explore(inputs)
	if err != nil {
		panic(err)
	}
	defer boosting.CloseGraph(g2)
	fmt.Println("identical sizes:", g1.Size() == g2.Size())
	fmt.Println("identical root fingerprints:", g1.Fingerprint(0) == g2.Fingerprint(0))
	fmt.Println("audited collisions:", boosting.StoreCollisions(g2))
	// Output:
	// identical sizes: true
	// identical root fingerprints: true
	// audited collisions: 0
}

// The registry enumerates every candidate family New accepts.
func ExampleProtocols() {
	for _, p := range boosting.Protocols() {
		fmt.Println(p.Name)
	}
	// Output:
	// forward
	// tob
	// registervote
	// setboost
	// floodset-p
	// fdboost
	// evperfect
	// suspectcollector
}
