package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runConfig is one run of one workload in this process.
type runConfig struct {
	w      *workload
	seed   int64
	window time.Duration
	trace  bool
	// setups is how many times set-up is performed; setup_s is their
	// median, and the last one's instance serves the timed window.
	setups int
	// warm is the number of discarded rounds that end each set-up.
	warm int
	// reps is the number of repetitions behind each layer-probe median.
	reps int
	// outDir receives trace-<workload>.jsonl; tmpBase holds the run's
	// private scratch root, removed on exit and on interrupt.
	outDir  string
	tmpBase string
	log     io.Writer
}

// resultLine is the last line of standard output of a -workload run, in
// the shape the benchmark contract asks for.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOutput is what one run measured: the result line, plus what lets the
// all-workloads mode pool several runs.
type runOutput struct {
	resultLine
	Blocks   []blockStats `json:"blocks,omitempty"`
	FirstErr string       `json:"first_error,omitempty"`
}

// blockLen is the length of the blocks a measurement window is cut into
// (the window is divided evenly, so blocks are this long or a little
// longer). Every statistic is taken per block, and a run reports its
// quietest block: interference from other tenants of the host only ever
// adds time, it comes in episodes of ten seconds and more, and a
// whole-window figure then depends on how many episodes the window caught.
// Two seconds is short enough to fall between episodes and long enough for
// eight ops of the slowest workload.
const blockLen = 2 * time.Second

// blockStats is one block of a measurement window.
type blockStats struct {
	Ops int `json:"ops"`
	// P50Ms and P90Ms are the block's op latency quantiles.
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	// OpsPerS is ops completed per second of the rounds' timed wall
	// clock; CPUMsPerOp is process user+sys CPU per op.
	OpsPerS    float64 `json:"ops_per_s"`
	CPUMsPerOp float64 `json:"cpu_ms_per_op"`
}

// windowStats is one closed-loop measurement window.
type windowStats struct {
	blocks    []blockStats
	attempted int
	failed    int
	firstErr  error
}

// column extracts one statistic from every block.
func column(blocks []blockStats, stat func(blockStats) float64) []float64 {
	xs := make([]float64, len(blocks))
	for i, b := range blocks {
		xs[i] = stat(b)
	}
	return xs
}

// quietP50 is the median op latency of the quietest block.
func quietP50(blocks []blockStats) float64 {
	return slices.Min(column(blocks, func(b blockStats) float64 { return b.P50Ms }))
}

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the peak resident set (VmHWM) of this process
// ("self") or of a live process id, 0 when it cannot be read. It is not
// ru_maxrss: Linux folds the resident set of the image that called exec
// into the new image's ru_maxrss, so under `go run` — or any parent larger
// than its child — ru_maxrss reports the parent.
func peakRSSMiB(pid string) float64 {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			if err != nil {
				return 0
			}
			return kib / 1024
		}
	}
	return 0
}

// measure runs rounds back to back until d has elapsed (at least one).
func measure(inst instance, d time.Duration, tr *tracer) windowStats {
	var (
		ws       windowStats
		step     = max(d/max(d/blockLen, 1), 1)
		blockEnd = step
		lat      []time.Duration
		timed    time.Duration
		cpu0     = cpuTime()
	)
	for start := time.Now(); ; {
		results, wall := inst.round(tr)
		timed += wall
		for _, r := range results {
			ws.attempted++
			lat = append(lat, r.dur)
			if r.err != nil {
				ws.failed++
				if ws.firstErr == nil {
					ws.firstErr = r.err
				}
			}
		}
		elapsed := time.Since(start)
		if elapsed < blockEnd && elapsed < d {
			continue
		}
		cpu1 := cpuTime()
		if timed > 0 {
			sorted := durationsMs(lat)
			ws.blocks = append(ws.blocks, blockStats{
				Ops:        len(lat),
				P50Ms:      quantile(sorted, 0.5),
				P90Ms:      quantile(sorted, 0.9),
				OpsPerS:    float64(len(lat)) / timed.Seconds(),
				CPUMsPerOp: ms(cpu1-cpu0) / float64(len(lat)),
			})
		}
		lat, timed, cpu0 = lat[:0], 0, cpu1
		for blockEnd <= elapsed {
			blockEnd += step
		}
		if elapsed >= d {
			return ws
		}
	}
}

// setUp performs one full set-up: load the goldens, construct the
// workload, and run the discarded warm-up rounds. A warm-up op that fails
// is an unmet precondition: the run refuses to record a number.
func setUp(cfg runConfig, tmp string) (instance, *env, error) {
	exp, err := loadExpected()
	if err != nil {
		return nil, nil, err
	}
	e := &env{exp: exp, tmp: tmp, rng: rand.New(rand.NewSource(cfg.seed))}
	inst, err := cfg.w.open(e, cfg.w)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < cfg.warm; i++ {
		results, _ := inst.round(nil)
		for _, r := range results {
			if r.err != nil {
				return nil, nil, errors.Join(fmt.Errorf("bench: %s: warm-up op failed: %w", cfg.w.name, r.err), inst.close())
			}
		}
	}
	return inst, e, nil
}

// scratchRoot creates the run's private temp root under base and arranges
// for it to be removed on interrupt as well as through the returned func.
func scratchRoot(base string) (string, func(), error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", nil, err
	}
	tmp, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return "", nil, err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-sig:
			_ = os.RemoveAll(tmp)
			os.Exit(130)
		case <-done:
		}
	}()
	cleanup := func() {
		signal.Stop(sig)
		close(done)
		_ = os.RemoveAll(tmp)
	}
	return tmp, cleanup, nil
}

// benchProcs is the GOMAXPROCS every workload runs under: the host's CPUs,
// capped so a many-core host measures the same parallel strategy.
func benchProcs() int { return min(runtime.NumCPU(), 4) }

// runWorkload is one benchmark run: gates, repeated set-up, the timed
// window (untraced), or with cfg.trace a traced window plus layer probes.
func runWorkload(cfg runConfig) (*runOutput, error) {
	runtime.GOMAXPROCS(benchProcs())
	if cpus := runtime.NumCPU(); cpus < cfg.w.minCPUs {
		return nil, fmt.Errorf("bench: %s needs at least %d CPUs, host has %d", cfg.w.name, cfg.w.minCPUs, cpus)
	}
	tmp, cleanup, err := scratchRoot(cfg.tmpBase)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	var (
		inst   instance
		e      *env
		setupS []float64
	)
	for i := 0; i < cfg.setups; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if inst, e, err = setUp(cfg, tmp); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer inst.close()

	if !cfg.trace {
		ws := measure(inst, cfg.window, nil)
		return endToEndOutput(ws, median(setupS))
	}

	// Traced run: a quarter of the window untraced gives the reference
	// the tracing overhead is measured against, the rest is traced.
	plain := measure(inst, cfg.window/4, nil)
	inst.layers(layerValues{}) // forget what warm-up and the reference recorded
	tr := newTracer()
	traced := measure(inst, cfg.window-cfg.window/4, tr)

	if len(plain.blocks) == 0 || len(traced.blocks) == 0 {
		return nil, fmt.Errorf("bench: no op ran to completion: %w", errors.Join(plain.firstErr, traced.firstErr))
	}
	values := layerValues{"trace.overhead_share": quietP50(traced.blocks)/quietP50(plain.blocks) - 1}
	inst.layers(values)
	if err := probeLayers(values, cfg, e, tr); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.outDir, "trace-"+cfg.w.name+".jsonl")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "%s: %d spans written to %s\n", cfg.w.name, len(tr.spans), path)
	printSpanTable(cfg.log, tr.spans)

	metrics, err := report(perLayer, values, false)
	if err != nil {
		return nil, err
	}
	out := &runOutput{resultLine: resultLine{
		Correct:   plain.failed+traced.failed == 0,
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   metrics,
	}}
	if err := errors.Join(plain.firstErr, traced.firstErr); err != nil {
		out.FirstErr = err.Error()
	}
	return out, nil
}

// endToEndValues derives the end-to-end metrics from timed blocks: each is
// the figure of the quietest block. The tail is the exception — eight ops
// do not make a p90 — so it is the quiet median scaled by the typical
// tail ratio, the median over the blocks of p90/p50, which host speed
// cancels out of.
func endToEndValues(blocks []blockStats, peakRSS, setupS float64) map[string]float64 {
	p50 := quietP50(blocks)
	return map[string]float64{
		"op_ms_p50":     p50,
		"op_ms_p90":     p50 * median(column(blocks, func(b blockStats) float64 { return b.P90Ms / b.P50Ms })),
		"ops_per_s":     slices.Max(column(blocks, func(b blockStats) float64 { return b.OpsPerS })),
		"cpu_ms_per_op": slices.Min(column(blocks, func(b blockStats) float64 { return b.CPUMsPerOp })),
		"peak_rss_mib":  peakRSS,
		"setup_s":       setupS,
	}
}

// endToEndOutput reports an untraced window.
func endToEndOutput(ws windowStats, setupS float64) (*runOutput, error) {
	if len(ws.blocks) == 0 {
		return nil, fmt.Errorf("bench: no op ran to completion: %w", ws.firstErr)
	}
	metrics, err := report(endToEnd, endToEndValues(ws.blocks, peakRSSMiB("self"), setupS), true)
	if err != nil {
		return nil, err
	}
	out := &runOutput{
		resultLine: resultLine{Correct: ws.failed == 0, Attempted: ws.attempted, Failed: ws.failed, Metrics: metrics},
		Blocks:     ws.blocks,
	}
	if ws.firstErr != nil {
		out.FirstErr = ws.firstErr.Error()
	}
	return out, nil
}
