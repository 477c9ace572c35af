// Positive, suppressed and negative cases for the graphclose analyzer.
// The positives replicate the leak shapes found (and since fixed) on the
// real tree: cmd/hookfind's early return, cmd/boostcheck's fall-off-the-
// end return, and cmd/experiments' derived-read returns.
package a

import (
	"fmt"
	"log"
	"os"

	boosting "github.com/ioa-lab/boosting"
)

// The pre-fix cmd/hookfind shape: one early return leaks while the main
// path closes.
func leakEarlyReturn() error {
	chk, err := boosting.NewChecker()
	if err != nil {
		return err
	}
	inits, err := chk.ClassifyInits()
	if err != nil {
		return err
	}
	fmt.Println(inits.BivalentIndex)
	if inits.BivalentIndex < 0 {
		return nil // want `graph from ClassifyInits is not closed on this path`
	}
	boosting.CloseGraph(inits.Graph)
	return nil
}

// The pre-fix cmd/boostcheck shape: the report falls out of scope at the
// final return.
func leakFinalReturn() error {
	chk, err := boosting.NewChecker()
	if err != nil {
		return err
	}
	report, err := chk.Refute(1)
	if err != nil {
		return err
	}
	fmt.Println(report.Violated())
	return nil // want `graph from Refute is not closed on this path`
}

// The pre-fix cmd/experiments shape: only a derived read survives the
// return; the carrier itself is dropped.
func leakDerivedReturn() (bool, error) {
	chk, err := boosting.NewChecker()
	if err != nil {
		return false, err
	}
	report, err := chk.Refute(1)
	if err != nil {
		return false, err
	}
	return report.Violated(), nil // want `graph from Refute is not closed on this path`
}

func discard() {
	chk, err := boosting.NewChecker()
	if err != nil {
		return
	}
	chk.Explore()        // want `result of Explore carries an open graph but is discarded`
	_, _ = chk.Refute(1) // want `result of Refute carries an open graph but is assigned to _`
}

// A borrowed graph with a documented owner elsewhere.
func suppressed() error {
	chk, err := boosting.NewChecker()
	if err != nil {
		return err
	}
	g, err := chk.Explore()
	if err != nil {
		return err
	}
	fmt.Println(g.Size())
	//lint:boostvet-ignore graphclose — g borrows a store owned by the harness
	return nil
}

// The post-fix shape: a deferred Close right after the error check covers
// every subsequent exit.
func deferClose() error {
	chk, err := boosting.NewChecker()
	if err != nil {
		return err
	}
	report, err := chk.Refute(1)
	if err != nil {
		return err
	}
	defer report.Close()
	fmt.Println(report.Violated())
	return nil
}

// Ownership transfer: returning the carrier makes the caller responsible.
func transfer() (*boosting.Report, error) {
	chk, err := boosting.NewChecker()
	if err != nil {
		return nil, err
	}
	report, err := chk.Refute(1)
	if err != nil {
		return nil, err
	}
	return report, nil
}

type holder struct{ R *boosting.Report }

// Storing the carrier somewhere longer-lived transfers ownership too.
func stash(h *holder) error {
	chk, err := boosting.NewChecker()
	if err != nil {
		return err
	}
	report, err := chk.Refute(1)
	if err != nil {
		return err
	}
	h.R = report
	return nil
}

// A reopened durable graph holds the same descriptors as a fresh build:
// dropping the handle at a return leaks exactly like the build shapes.
func leakReopen() error {
	chk, err := boosting.NewChecker()
	if err != nil {
		return err
	}
	g, err := chk.OpenGraph("graphs/forward")
	if err != nil {
		return err
	}
	fmt.Println(g.Size())
	return nil // want `graph from OpenGraph is not closed on this path`
}

func (h *holder) adopt(r *boosting.Report) error { h.R = r; return nil }

// Handing the carrier to a method as an argument, in an assignment,
// transfers ownership as well: the callee may be its closer.
func handOver(h *holder) error {
	chk, err := boosting.NewChecker()
	if err != nil {
		return err
	}
	report, err := chk.Refute(1)
	if err != nil {
		return err
	}
	err = h.adopt(report)
	return err
}

// Process exits end paths: descriptors do not outlive the process.
func exits() {
	chk, err := boosting.NewChecker()
	if err != nil {
		return
	}
	g, err := chk.Explore()
	if err != nil {
		log.Fatal(err)
	}
	if g.Size() == 0 {
		os.Exit(1)
	}
	boosting.CloseGraph(g)
}
