// Command boostcheck runs the full impossibility analysis on a candidate
// boosting system: the Lemma 4 initialization classification, the Fig. 3
// hook search, and the failure-scenario refutation of Theorems 2, 9 and 10.
//
// Usage:
//
//	boostcheck -candidate forward -n 2 -f 0 -claim 1
//	boostcheck -candidate forward -n 4 -f 0 -claim 1 -symmetry
//	boostcheck -candidate tob -n 2 -f 0 -claim 1
//	boostcheck -candidate floodset-p -n 3 -f 0 -claim 1
//	boostcheck -candidate fdboost -n 3 -claim 2
//
// Candidates are the registry families of the boosting package (see
// `boosting.Protocols`), most prominently:
//
//	forward     n processes forwarding to one f-resilient consensus object
//	            (Theorem 2 family)
//	tob         n processes deciding via an f-resilient totally ordered
//	            broadcast service (Theorem 9 family)
//	floodset-p  FloodSet over registers with one f-resilient all-connected
//	            perfect failure detector (Theorem 10 family)
//	fdboost     FloodSet with pairwise 1-resilient 2-process perfect
//	            failure detectors (the Section 6.3 boost — not refutable)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/ioa-lab/boosting"
	"github.com/ioa-lab/boosting/internal/cliflags"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "boostcheck:", cliflags.Describe(err))
		os.Exit(cliflags.ExitCode(err))
	}
}

// candidateUsage lists the registry names in the -candidate usage string.
func candidateUsage() string {
	var names []string
	for _, p := range boosting.Protocols() {
		names = append(names, p.Name)
	}
	return "candidate family: " + strings.Join(names, " | ")
}

func run(args []string) error {
	fs := flag.NewFlagSet("boostcheck", flag.ContinueOnError)
	var (
		candidate = fs.String("candidate", "forward", candidateUsage())
		n         = fs.Int("n", 2, "number of processes")
		f         = fs.Int("f", 0, "service resilience")
		claim     = fs.Int("claim", 1, "claimed tolerated failures")
		benign    = fs.Bool("benign", false, "benign silence policy (services never exercise their right to fall silent)")
	)
	common := cliflags.Register(fs)
	if err := cliflags.Parse(fs, args); err != nil {
		return err
	}
	policy := boosting.Adversarial
	if *benign {
		policy = boosting.Benign
	}
	opts, err := common.Options()
	if err != nil {
		return err
	}
	opts = append(opts, boosting.WithSilencePolicy(policy), boosting.WithMaxRounds(2000))
	if *candidate == "floodset-p" {
		// The Theorem 10 shape: one more flooding round than the detector's
		// resilience can cover at the claimed tolerance.
		opts = append(opts, boosting.WithRounds(*claim+1))
	}
	chk, err := boosting.New(*candidate, *n, *f, opts...)
	if err != nil {
		return err
	}

	fmt.Printf("candidate: %s (n=%d, f=%d, policy=%s), claiming %d-failure tolerance\n\n",
		*candidate, *n, *f, policy, *claim)
	report, err := chk.Refute(*claim)
	if err != nil {
		return err
	}
	defer report.Close()
	fmt.Print(report.String())
	if report.Violated() {
		fmt.Println("\nverdict: boosting REFUTED — the claimed resilience is not achieved")
	} else {
		fmt.Println("\nverdict: no violation found — the claim survives (boosting not attempted or not needed)")
	}
	return nil
}
