package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"github.com/ioa-lab/boosting"
)

// refuteLayers splits the refute-n4 op into the phases the façade exposes
// — classification, hook search, the whole refutation — and leaves the
// safety sweep plus failure scenarios as the residual; then runs the same
// refutation as a user does, through a cmd/boostcheck built for the
// purpose, to price process start-up and flag handling.
func refuteLayers(values layerValues, cfg runConfig, e *env) error {
	spec := cfg.w.build
	want, err := e.exp.get(cfg.w.name)
	if err != nil {
		return err
	}
	chk, err := boosting.New(spec.protocol, spec.n, spec.f, spec.options("")...)
	if err != nil {
		return err
	}
	classifyTime, err := timeBuilds(spec, e.tmp, cfg.reps)
	if err != nil {
		return err
	}
	c, err := chk.ClassifyInits()
	if err != nil {
		return err
	}
	defer c.Close()
	if c.BivalentIndex < 0 {
		return errors.New("no bivalent initialization to search a hook from")
	}
	hookTime, err := medianOf(cfg.reps, func() error {
		res, err := chk.FindHook(c.Graph, c.Roots[c.BivalentIndex])
		if err == nil && res.Hook == nil {
			err = errors.New("hook search diverged")
		}
		return err
	})
	if err != nil {
		return err
	}
	refuteTime, err := medianOf(cfg.reps, func() error {
		got, err := refuteOnce(spanRef{}, spec, 1)
		if err != nil {
			return err
		}
		return want.check(got)
	})
	if err != nil {
		return err
	}
	values["explore.classify_ms"] = ms(classifyTime)
	values["explore.find_hook_ms"] = ms(hookTime)
	values["explore.refute_ms"] = ms(refuteTime)
	values["explore.refute_residual_ms"] = ms(refuteTime - classifyTime - hookTime)

	// The scheduler under the failure scenarios: every input assignment,
	// failure-free and with process 0 failed before the first round.
	var runs []boosting.RunConfig
	sys := chk.System()
	for bits := 0; bits < 1<<spec.n; bits++ {
		inputs := make(map[int]string, spec.n)
		for i, id := range sys.ProcessIDs() {
			inputs[id] = strconv.Itoa(bits >> i & 1)
		}
		runs = append(runs,
			boosting.RunConfig{Inputs: inputs},
			boosting.RunConfig{Inputs: inputs, Failures: []boosting.FailureEvent{{Round: 0, Proc: sys.ProcessIDs()[0]}}})
	}
	batchTime, err := medianOf(cfg.reps, func() error {
		_, err := chk.RunBatch(runs)
		return err
	})
	if err != nil {
		return err
	}
	values["explore.run_batch_us_per_run"] = float64(batchTime) / 1e3 / float64(len(runs))

	return cmdLayers(values, cfg, e, want, refuteTime)
}

// cmdLayers builds cmd/boostcheck into the run's scratch root and times
// the refutation from process start to exit.
func cmdLayers(values layerValues, cfg runConfig, e *env, want expectation, inProcess time.Duration) error {
	spec := cfg.w.build
	bin := filepath.Join(e.tmp, "boostcheck")
	if out, err := exec.Command("go", "build", "-o", bin, "github.com/ioa-lab/boosting/cmd/boostcheck").CombinedOutput(); err != nil {
		return fmt.Errorf("go build cmd/boostcheck: %w: %s", err, bytes.TrimSpace(out))
	}
	var peak float64
	wall, err := medianOf(cfg.reps, func() error {
		cmd := exec.Command(bin, "-candidate", spec.protocol, "-n", strconv.Itoa(spec.n), "-f", strconv.Itoa(spec.f),
			"-claim", "1", "-workers", strconv.Itoa(spec.workers))
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("boostcheck: %w", err)
		}
		// The child's peak RSS is sampled while it runs: VmHWM only grows,
		// so the last reading before exit is the peak to within one
		// sampling interval (its ru_maxrss would include this process).
		exited := make(chan struct{})
		sampled := make(chan float64)
		go func() {
			pid, last := strconv.Itoa(cmd.Process.Pid), 0.0
			for {
				select {
				case <-exited:
					sampled <- last
					return
				case <-time.After(2 * time.Millisecond):
					last = max(last, peakRSSMiB(pid))
				}
			}
		}()
		err := cmd.Wait()
		close(exited)
		peak = max(peak, <-sampled)
		if err != nil {
			return fmt.Errorf("boostcheck: %w", err)
		}
		// stdout is a header paragraph, the report, then the verdict line.
		_, rest, _ := bytes.Cut(stdout.Bytes(), []byte("\n\n"))
		report, _, _ := bytes.Cut(rest, []byte("\nverdict:"))
		sum := sha256.Sum256(report)
		if got := hex.EncodeToString(sum[:]); got != want.ReportSha256 {
			return fmt.Errorf("boostcheck report sha256 %s, want %s", got, want.ReportSha256)
		}
		return nil
	})
	if err != nil {
		return err
	}
	values["cmd.boostcheck_wall_ms"] = ms(wall)
	values["cmd.boostcheck_peak_rss_mib"] = peak
	values["cmd.process_overhead_ms"] = ms(wall - inProcess)
	return nil
}
