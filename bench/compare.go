package main

import (
	"fmt"
	"io"
)

// worsening returns by what share of base the new value is worse, given
// the metric's direction (negative when it improved).
func worsening(better string, base, val float64) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - val) / base
	}
	return (val - base) / base
}

// compareFiles prints every end-to-end metric × workload of two ledger
// files as base, new, ratio (new/base) and bound, and fails on a metric
// that worsened beyond its bound or on a higher share of failed ops. The
// bounds are the base file's; a -quick ledger carries numbers too noisy
// to judge and is refused.
func compareFiles(w io.Writer, basePath, newPath string) error {
	base, err := readLedger(basePath)
	if err != nil {
		return err
	}
	cur, err := readLedger(newPath)
	if err != nil {
		return err
	}
	if base.Quick || cur.Quick {
		return fmt.Errorf("bench: -quick ledgers carry no comparable numbers")
	}
	curRows := make(map[string]workloadResult, len(cur.Workloads))
	for _, row := range cur.Workloads {
		curRows[row.Name] = row
	}
	breaches := 0
	fmt.Fprintf(w, "%-22s %-14s %12s %12s %8s %7s\n", "workload", "metric", "base", "new", "ratio", "bound")
	for _, b := range base.Workloads {
		c, ok := curRows[b.Name]
		if !ok {
			fmt.Fprintf(w, "%-22s missing from %s\n", b.Name, newPath)
			breaches++
			continue
		}
		for _, d := range endToEnd {
			bm, cm := b.EndToEnd[d.Name], c.EndToEnd[d.Name]
			verdict := ""
			if worsening(bm.Better, bm.Value, cm.Value) > bm.Bound {
				verdict = "  REGRESSION"
				breaches++
			}
			fmt.Fprintf(w, "%-22s %-14s %12.4f %12.4f %8.3f %6.0f%%%s\n",
				b.Name, d.Name, bm.Value, cm.Value, cm.Value/bm.Value, 100*bm.Bound, verdict)
		}
		bf, cf := failedShare(b), failedShare(c)
		verdict := ""
		if cf > bf {
			verdict = "  REGRESSION"
			breaches++
		}
		fmt.Fprintf(w, "%-22s %-14s %12.4f %12.4f %8s %6.0f%%%s\n", b.Name, "failed_share", bf, cf, "-", 0.0, verdict)
	}
	if breaches > 0 {
		return fmt.Errorf("bench: %d end-to-end metric(s) outside their bounds", breaches)
	}
	return nil
}

func failedShare(row workloadResult) float64 {
	if row.Attempted == 0 {
		return 1
	}
	return float64(row.Failed) / float64(row.Attempted)
}
