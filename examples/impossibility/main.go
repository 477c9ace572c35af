// Impossibility walkthrough: the proof of Theorem 2, replayed step by step
// on a concrete system through the public boosting façade.
//
// The candidate is the natural boosting attempt — two processes forwarding
// their inputs through a 0-resilient consensus object, claiming 1-resilient
// consensus. The walkthrough reproduces the proof's acts in order:
//
//  1. Lemma 4:  classify the monotone initializations, exhibit a bivalent one;
//  2. Lemma 5:  run the Fig. 3 round-robin construction, exhibit the hook;
//  3. Lemma 8:  observe that the hook's univalent ends are k-similar at the
//     shared object — the configuration the lemma forbids for systems that
//     actually solve (f+1)-resilient consensus;
//  4. Lemma 7:  fail f+1 = 1 process, silencing the object, and watch the
//     mirrored fair runs from both hook ends diverge identically —
//     the concrete non-termination counterexample.
package main

import (
	"fmt"
	"os"

	"github.com/ioa-lab/boosting"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "impossibility:", err)
		os.Exit(1)
	}
}

func run() error {
	chk, err := boosting.New("forward", 2, 0)
	if err != nil {
		return err
	}
	fmt.Println("candidate: P0, P1 → 0-resilient consensus object k0, claiming 1-resilient consensus")
	fmt.Println("Theorem 2 applies: f = 0 < n−1 = 1, so the claim must fail. Watch how.")

	// Act 1: Lemma 4.
	fmt.Println("\n— Act 1 (Lemma 4): initializations —")
	inits, err := chk.ClassifyInits()
	if err != nil {
		return err
	}
	defer inits.Close()
	fmt.Print(inits)
	if inits.BivalentIndex < 0 {
		return fmt.Errorf("no bivalent initialization")
	}

	// Act 2: Lemma 5 / Fig. 3.
	fmt.Println("\n— Act 2 (Lemma 5): the hook —")
	hs, err := chk.FindHook(inits.Graph, inits.Roots[inits.BivalentIndex])
	if err != nil {
		return err
	}
	if hs.Hook == nil {
		return fmt.Errorf("construction diverged instead of hooking")
	}
	fmt.Println(hs.Hook)

	// Act 3: Lemma 8's forbidden configuration.
	fmt.Println("\n— Act 3 (Lemma 8): similarity of the hook ends —")
	s0, _ := inits.Graph.State(hs.Hook.Alpha0)
	s1, _ := inits.Graph.State(hs.Hook.Alpha1)
	who, similar := boosting.SomeSimilarity(chk.System(), s0, s1)
	if !similar {
		return fmt.Errorf("hook ends not similar")
	}
	fmt.Printf("the %v and %v ends differ ONLY in the state of %s —\n",
		inits.Graph.Valence(hs.Hook.Alpha0), inits.Graph.Valence(hs.Hook.Alpha1), who)
	fmt.Println("for a correct system, Lemma 7 says such states must decide alike. They don't.")

	// Act 4: Lemma 7's failure construction.
	fmt.Println("\n— Act 4 (Lemma 7): fail f+1 processes, silence the object —")
	for idx, st := range []boosting.State{s0, s1} {
		cur, _, failErr := chk.System().Fail(st, 0)
		if failErr != nil {
			return failErr
		}
		res, runErr := chk.RunFrom(cur, inits.Assignments[inits.BivalentIndex])
		if runErr != nil {
			return runErr
		}
		fmt.Printf("from α%d + fail_0: diverged=%v, survivor decisions=%v\n",
			idx, res.Diverged, res.Decisions)
	}
	fmt.Println("\nboth sides cycle forever; P1 (live, inited) never decides.")
	fmt.Println("The claimed 1-resilience is refuted — boosting is impossible, as proved.")
	return nil
}
