package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// The all-workloads mode. Every measurement runs in a fresh child process
// of this binary (so peak RSS and heap state belong to one workload), and
// the timed runs of the workloads are interleaved round-robin, so slow
// drift of the host lands on all of them alike. The blocks of a workload's
// runs are pooled; one traced run per workload follows.

// timedRuns is how many timed runs each workload gets.
const timedRuns = 3

type allConfig struct {
	seed       int64
	runSeconds int
	quick      bool
	outDir     string
	tmpBase    string
}

// ledgerMetric is an end-to-end metric with the regression rule it is
// judged by, so a ledger file can be compared without its BENCHMARK.json.
type ledgerMetric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// workloadResult is one workload's row of the ledger.
type workloadResult struct {
	Name      string                  `json:"name"`
	Why       string                  `json:"why"`
	Samples   int                     `json:"samples"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	EndToEnd  map[string]ledgerMetric `json:"end_to_end"`
	PerLayer  map[string]metric       `json:"per_layer"`
}

// ledger is the bench.json document.
type ledger struct {
	Seed       int64            `json:"seed"`
	Quick      bool             `json:"quick"`
	Runs       int              `json:"runs"`
	RunSeconds int              `json:"run_seconds"`
	Host       hostInfo         `json:"host"`
	Workloads  []workloadResult `json:"workloads"`
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &l, nil
}

// child runs one workload once in a child process and returns its dump.
func child(exe string, cfg allConfig, w *workload, trace int, dump string) (*runOutput, error) {
	args := []string{
		"-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.Itoa(cfg.runSeconds), "-trace", strconv.Itoa(trace),
		"-out", cfg.outDir, "-tmpdir", cfg.tmpBase, "-dump", dump,
	}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("bench: %s (trace %d): %w", w.name, trace, err)
	}
	data, err := os.ReadFile(dump)
	if err != nil {
		return nil, err
	}
	var out runOutput
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", dump, err)
	}
	return &out, nil
}

// pool merges a workload's timed runs into its end-to-end row: the blocks
// of all runs are one population; peak RSS and set-up time, which a run
// has one of, are the median over the runs.
func pool(runs []*runOutput) (attempted, failed, samples int, e2e map[string]ledgerMetric) {
	var (
		blocks      []blockStats
		rss, setups []float64
	)
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
		blocks = append(blocks, r.Blocks...)
		rss = append(rss, r.Metrics["peak_rss_mib"].Value)
		setups = append(setups, r.Metrics["setup_s"].Value)
	}
	for _, b := range blocks {
		samples += b.Ops
	}
	values := endToEndValues(blocks, median(rss), median(setups))
	e2e = make(map[string]ledgerMetric, len(endToEnd))
	for _, d := range endToEnd {
		e2e[d.Name] = ledgerMetric{Value: values[d.Name], Unit: d.Unit, Better: d.Better, Bound: d.Bound}
	}
	return attempted, failed, samples, e2e
}

func runAll(cfg allConfig) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	dumps, cleanup, err := scratchRoot(cfg.tmpBase)
	if err != nil {
		return err
	}
	defer cleanup()

	runs := timedRuns
	if cfg.quick {
		runs = 1
	}
	// A workload whose child exits non-zero (an unmet precondition)
	// records no number at all; the others still run.
	var (
		timed  = make(map[string][]*runOutput)
		broken = make(map[string]error)
	)
	for r := 0; r < runs; r++ {
		for i := range workloads {
			w := &workloads[i]
			if broken[w.name] != nil {
				continue
			}
			fmt.Fprintf(os.Stderr, "timed run %d/%d: %s\n", r+1, runs, w.name)
			out, err := child(exe, cfg, w, 0, filepath.Join(dumps, fmt.Sprintf("%s-%d.json", w.name, r)))
			if err != nil {
				broken[w.name] = err
				continue
			}
			timed[w.name] = append(timed[w.name], out)
		}
	}
	doc := ledger{Seed: cfg.seed, Quick: cfg.quick, Runs: runs, RunSeconds: cfg.runSeconds, Host: probeHost(cfg.tmpBase)}
	for i := range workloads {
		w := &workloads[i]
		if broken[w.name] != nil {
			continue
		}
		fmt.Fprintf(os.Stderr, "traced run: %s\n", w.name)
		traced, err := child(exe, cfg, w, 1, filepath.Join(dumps, w.name+"-trace.json"))
		if err != nil {
			broken[w.name] = err
			continue
		}
		row := workloadResult{Name: w.name, Why: w.why, PerLayer: traced.Metrics}
		row.Attempted, row.Failed, row.Samples, row.EndToEnd = pool(timed[w.name])
		doc.Workloads = append(doc.Workloads, row)
	}

	printLedger(os.Stdout, &doc)
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, "bench.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)

	var errs []error
	for _, w := range workloads {
		if err := broken[w.name]; err != nil {
			errs = append(errs, err)
		}
	}
	for _, row := range doc.Workloads {
		if row.Failed > 0 {
			errs = append(errs, fmt.Errorf("bench: %s: %d of %d ops failed", row.Name, row.Failed, row.Attempted))
		}
	}
	return errors.Join(errs...)
}

// printLedger prints every metric by name and unit.
func printLedger(w io.Writer, doc *ledger) {
	fmt.Fprintf(w, "host: %d cpus, GOMAXPROCS %d, %s, kernel %s, tmpdir on %s\n",
		doc.Host.CPUs, doc.Host.GOMAXPROCS, doc.Host.GoVersion, doc.Host.Kernel, doc.Host.TmpFS)
	for _, row := range doc.Workloads {
		fmt.Fprintf(w, "\n%s — %d samples, %d attempted, %d failed\n", row.Name, row.Samples, row.Attempted, row.Failed)
		for _, d := range endToEnd {
			m := row.EndToEnd[d.Name]
			note := ""
			if d.Name == "op_ms_p90" && highestPercentile(row.Samples) < 90 {
				note = "  (fewer than 10 samples beyond it)"
			}
			fmt.Fprintf(w, "  %-34s %14.4f %-12s%s\n", d.Name, m.Value, m.Unit, note)
		}
		for _, d := range perLayer {
			m := row.PerLayer[d.Name]
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.Name, m.Value, m.Unit)
		}
	}
}
