// Command bench is the repository's benchmark: time from request to typed
// verdict on four workloads, and — in a separate traced run — where that
// time goes, layer by layer, measured from outside the layers.
//
//	go run ./bench                                  all workloads, interleaved runs, one ledger file
//	go run ./bench -workload refute-n4 -seed 7 -seconds 28 -trace 0
//	go run ./bench -compare base.json new.json
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1. Names, units,
// directions and bounds are declared in the root BENCHMARK.json; see
// bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run one workload in this process and print its result line (default: all workloads, in child processes)")
		seed    = fs.Int64("seed", 1, "workload seed: drives boostd-session's input vectors, renamings and request order")
		seconds = fs.Int("seconds", 0, "measured seconds per run (default 10; 1 with -quick)")
		trace   = fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
		out     = fs.String("out", ".bench_out", "directory for trace files and, without -workload, bench.json")
		tmpdir  = fs.String("tmpdir", "", "parent of the run's scratch root: graph directories, built binaries (default <out>/tmp)")
		quick   = fs.Bool("quick", false, "smoke mode: 1 s runs, one set-up, one probe repetition; numbers are not comparable")
		cmp     = fs.Bool("compare", false, "compare two bench.json files given as arguments: base, then new")
		dump    = fs.String("dump", "", "with -workload: also write the run's raw samples to this file (used by the all-workloads mode)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cmp {
		if fs.NArg() != 2 {
			return fmt.Errorf("bench: -compare takes two files: base.json new.json")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("bench: unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("bench: -trace must be 0 or 1")
	}
	if *seconds < 0 {
		return fmt.Errorf("bench: -seconds must be positive")
	}
	if *seconds == 0 {
		*seconds = 10
		if *quick {
			*seconds = 1
		}
	}
	if *tmpdir == "" {
		*tmpdir = filepath.Join(*out, "tmp")
	}
	if *name == "" {
		return runAll(allConfig{seed: *seed, runSeconds: *seconds, quick: *quick, outDir: *out, tmpBase: *tmpdir})
	}

	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("bench: unknown workload %q", *name)
	}
	cfg := runConfig{
		w: w, seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		setups: 3, warm: 3, reps: 3,
		outDir: *out, tmpBase: *tmpdir, log: os.Stderr,
	}
	if *quick {
		cfg.setups, cfg.warm, cfg.reps = 1, 1, 1
	}
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	if res.FirstErr != "" {
		fmt.Fprintf(os.Stderr, "%s: %d of %d ops failed; first: %s\n", w.name, res.Failed, res.Attempted, res.FirstErr)
	}
	if *dump != "" {
		data, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*dump, data, 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res.resultLine)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
