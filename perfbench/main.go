// Command perfbench is the end-to-end detection benchmark. It runs one
// workload for a fixed time, checks every verdict against the planted
// ground truth of the programs it detects, and prints one JSON object as
// the last line of its output. Run it from the repository root:
//
//	bash perfbench/run.sh --workload aes128-diff --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with span
// recording off. With --trace 1 it runs the per-layer pass instead: it
// wraps a span around every layer call, reports the per-layer metrics,
// writes a Perfetto timeline, and prints a per-layer self-time table.
// README.md lists the workloads, the metrics, and the end-to-end metric
// each layer metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// runs is the fixed and random run count per class of the aes128-*
	// detections (the paper's 100); jobRuns is that of service jobs (the
	// service default, 40). Tests shrink both.
	runs, jobRuns int
	// outDir receives the traced run's timeline.
	outDir string
	// setupProbe makes the process set up, print "ready", and exit: one
	// setup_s sample, timed by the parent.
	setupProbe bool
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traced int
	fs.StringVar(&cfg.workload, "workload", "", "workload: aes128-diff, aes128-stat, or service-mix")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; every input, job and detection seed derives from it")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "length of the timed region in seconds")
	fs.IntVar(&traced, "trace", 0, "1 runs the per-layer pass instead of the end-to-end one")
	fs.IntVar(&cfg.runs, "runs", 100, "fixed and random runs per class of the aes128-* detections")
	fs.IntVar(&cfg.jobRuns, "job-runs", 40, "fixed and random runs per class of service-mix jobs")
	fs.StringVar(&cfg.outDir, "out", ".bench_build/perfbench-out", "directory for the traced run's timeline")
	fs.BoolVar(&cfg.setupProbe, "setup-probe", false, "set up, print ready, and exit")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.trace = traced == 1
	switch {
	case !slices.Contains(workloads, cfg.workload):
		return cfg, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
	case traced != 0 && traced != 1:
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", traced)
	case cfg.seconds < 0 || cfg.runs < 2 || cfg.jobRuns < 2:
		return cfg, fmt.Errorf("--seconds must be >= 0, --runs and --job-runs >= 2")
	}
	return cfg, nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := measure(cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if res == nil { // set-up probe
		return 0
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// workload is a set-up benchmark workload.
type workload interface {
	// e2e runs the timed region until deadline with span recording off.
	e2e(deadline time.Time) *tally
	// layers runs the per-layer pass until deadline.
	layers(p *layerPass, deadline time.Time) error
	// verify runs the untimed once-per-run checks: the constant-time
	// twins and the re-detection of the first timed seed.
	verify(t *tally)
	close()
}

// setup builds the workload and warms it with one untimed detection or
// job, so decoded executors and pools are filled before timing.
func setup(cfg config) (workload, error) {
	if cfg.workload == wServiceMix {
		return newServiceBench(cfg)
	}
	return newDetectBench(cfg)
}

// measure runs one benchmark invocation and returns its result, or nil
// for a set-up probe.
func measure(cfg config, stdout, stderr io.Writer) (*result, error) {
	if cfg.setupProbe {
		w, err := setup(cfg)
		if err != nil {
			return nil, err
		}
		w.close()
		fmt.Fprintln(stdout, "ready")
		return nil, nil
	}
	var setupS []float64
	if !cfg.trace {
		var err error
		if setupS, err = probeSetup(cfg); err != nil {
			return nil, err
		}
	}
	w, err := setup(cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))

	var t *tally
	var m map[string]metric
	if cfg.trace {
		p := newLayerPass(cfg)
		if err := w.layers(p, deadline); err != nil {
			return nil, err
		}
		w.verify(p.tally)
		if err := p.finish(stdout); err != nil {
			return nil, err
		}
		t, m = p.tally, p.metrics
	} else {
		t = w.e2e(deadline)
		w.verify(t)
		m = t.endToEnd(median(setupS))
		fmt.Fprintf(stdout, "raw: detect_s %.4f, job_p50_s %.4f, setup_s %v, steal %.2f s over %.2f s of process CPU\n",
			median(t.detect), median(t.latency), setupS, t.steal, t.cpu)
	}
	if t.failed > 0 {
		for _, e := range t.errs {
			fmt.Fprintln(stderr, "perfbench: verdict:", e)
		}
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// deriveSeed draws the next seed from a stream derived from the workload
// seed; it is never 0, which the service reads as "use the default seed".
func deriveSeed(rng *rand.Rand) int64 { return rng.Int63n(1<<40) + 1 }
