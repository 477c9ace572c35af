// Command hookfind exhibits the bivalence structure of a candidate
// consensus system: it classifies the monotone initializations (Lemma 4),
// runs the Fig. 3 round-robin construction, and prints the resulting hook
// (Fig. 2) or divergence certificate.
//
// Usage:
//
//	hookfind -n 2 -f 0
//	hookfind -n 4 -f 0 -symmetry   # quotient graph modulo process renaming
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/ioa-lab/boosting"
	"github.com/ioa-lab/boosting/internal/cliflags"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hookfind:", cliflags.Describe(err))
		os.Exit(cliflags.ExitCode(err))
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hookfind", flag.ContinueOnError)
	var (
		n = fs.Int("n", 2, "number of processes")
		f = fs.Int("f", 0, "consensus object resilience")
	)
	common := cliflags.Register(fs)
	if err := cliflags.Parse(fs, args); err != nil {
		return err
	}
	opts, err := common.Options()
	if err != nil {
		return err
	}
	chk, err := boosting.New("forward", *n, *f, opts...)
	if err != nil {
		return err
	}
	fmt.Printf("system: %d processes forwarding to a %d-resilient consensus object\n\n", *n, *f)

	inits, err := chk.ClassifyInits()
	if err != nil {
		return err
	}
	defer inits.Close()
	fmt.Printf("Lemma 4 — initialization valences (G(C) has %d vertices):\n%s\n", inits.Graph.Size(), inits)
	if inits.BivalentIndex < 0 {
		fmt.Println("no bivalent initialization: nothing to hook")
		return nil
	}

	res, err := chk.FindHook(inits.Graph, inits.Roots[inits.BivalentIndex])
	if err != nil {
		return err
	}
	switch {
	case res.Hook != nil:
		h := res.Hook
		fmt.Printf("Fig. 3 construction terminated after a %d-edge bivalent path.\n\n", res.PathLen)
		fmt.Printf("%s\n\n", h)
		fmt.Printf("  α   (bivalent) : %.24q...\n", inits.Graph.Fingerprint(h.Alpha))
		fmt.Printf("  e              : %v\n", h.E)
		fmt.Printf("  e'             : %v\n", h.EPrime)
		fmt.Printf("  α0 = e(α)      : %v\n", inits.Graph.Valence(h.Alpha0))
		fmt.Printf("  α1 = e(e'(α))  : %v\n", inits.Graph.Valence(h.Alpha1))
		s0, _ := inits.Graph.State(h.Alpha0)
		s1, _ := inits.Graph.State(h.Alpha1)
		if who, ok := boosting.SomeSimilarity(chk.System(), s0, s1); ok {
			fmt.Printf("\nhook ends are similar at %s — the configuration Lemma 8 forbids\n", who)
			fmt.Println("for correct systems; failing processes to silence that component")
			fmt.Println("turns the hook into a concrete non-termination counterexample.")
		}
	case res.Divergence != nil:
		fmt.Printf("construction diverged: fair bivalent cycle after %d steps\n", res.Divergence.Steps)
		fmt.Println("(an infinite fair failure-free execution in which no process decides)")
	}
	return nil
}
