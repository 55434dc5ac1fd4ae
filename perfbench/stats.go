package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// tally accumulates one run's outcomes and timings.
type tally struct {
	attempted, failed int
	errs              []string // first failures, for the log

	latency []float64 // per detection or job, seconds from start or submit to done
	detect  []float64 // per detection: DetectContext plus report encoding, seconds
	wall    float64   // timed region, seconds
	cpu     float64   // process CPU over the timed region, seconds
	steal   float64   // CPU time the hypervisor took from the box over the region, seconds
	peaks   []float64 // peak live heap of each heapWindow of the region, bytes
}

// fail records a failed or refused operation or a verdict miss.
func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 8 {
		t.errs = append(t.errs, err.Error())
	}
}

// merge folds another client's tally into t.
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.errs = append(t.errs, o.errs...)
	t.latency = append(t.latency, o.latency...)
	t.detect = append(t.detect, o.detect...)
}

// endToEnd returns the end-to-end metrics of a timed region. Wall-clock
// figures are net of hypervisor steal: they are scaled by the share of
// the process's runnable time it actually ran (see unstolen). CPU time
// needs no such correction, because the kernel already leaves steal out
// of it.
func (t *tally) endToEnd(setupS float64) map[string]metric {
	done := float64(len(t.latency))
	net := unstolen(t.cpu, t.steal)
	return map[string]metric{
		"setup_s":      {setupS, "s"},
		"detect_s":     {median(t.detect) * net, "s"},
		"cpu_s":        {t.cpu / done, "s"},
		"peak_heap_mb": {median(t.peaks) / 1e6, "MB"},
		"job_p50_s":    {quantile(t.latency, 0.5) * net, "s"},
		"job_p90_s":    {quantile(t.latency, 0.9) * net, "s"},
		"jobs_per_s":   {done / (t.wall * net), "1/s"},
	}
}

// unstolen returns the share of a busy interval the guest actually ran:
// cpu/(cpu+steal) for cpu seconds of process CPU and steal seconds of
// hypervisor steal over the interval. On a shared virtual machine the
// hypervisor's steal swings the same run's wall time by tens of percent
// from one minute to the next; scaling wall-clock figures by this share
// keeps them comparable across runs. Without steal accounting it is 1.
func unstolen(cpu, steal float64) float64 {
	if cpu <= 0 || steal <= 0 {
		return 1
	}
	return cpu / (cpu + steal)
}

// stealSeconds returns the box's cumulative hypervisor steal time (the
// eighth field of the cpu line of /proc/stat, in 1/100 s), or 0 where
// the kernel does not report it.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// heapWindow is the interval over which heapSampler keeps one peak. The
// live heap is known only as of the last GC, so the maximum over a whole
// run depends on where collections happen to fall; the median of
// per-window peaks about one detection long does not.
const heapWindow = time.Second

// heapSampler polls the live heap (as of the last GC) until stopped and
// keeps its peak in each heapWindow.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		windowEnd := time.Now().Add(heapWindow)
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-h.stop:
				h.peaks = append(h.peaks, float64(peak))
				return
			case now := <-tick.C:
				if now.After(windowEnd) {
					h.peaks = append(h.peaks, float64(peak))
					peak, windowEnd = 0, now.Add(heapWindow)
				}
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the per-window peaks in bytes.
func (h *heapSampler) Stop() []float64 {
	close(h.stop)
	<-h.done
	return h.peaks
}

// timedRegion brackets a timed region: wall clock, process CPU,
// hypervisor steal and the live-heap peak.
type timedRegion struct {
	start      time.Time
	cpu, steal float64
	heap       *heapSampler
}

func beginRegion() *timedRegion {
	return &timedRegion{start: time.Now(), cpu: cpuSeconds(), steal: stealSeconds(), heap: startHeapSampler()}
}

func (r *timedRegion) end(t *tally) {
	t.wall = time.Since(r.start).Seconds()
	t.cpu = cpuSeconds() - r.cpu
	t.steal = stealSeconds() - r.steal
	t.peaks = r.heap.Stop()
}

// setupProbes is how many fresh processes time set-up; setup_s is their
// median.
const setupProbes = 3

// probeSetup times set-up in setupProbes fresh child processes, each
// from its start until it reports ready, net of hypervisor steal like
// the other wall-clock figures, and returns the samples.
func probeSetup(cfg config) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("setup probe: %w", err)
	}
	out := make([]float64, 0, setupProbes)
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "--setup-probe", "--workload", cfg.workload,
			"--seed", strconv.FormatInt(cfg.seed, 10),
			"--runs", strconv.Itoa(cfg.runs), "--job-runs", strconv.Itoa(cfg.jobRuns))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		start, steal0 := time.Now(), stealSeconds()
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		sc := bufio.NewScanner(stdout)
		ready := sc.Scan() && sc.Text() == "ready"
		elapsed, steal := time.Since(start).Seconds(), stealSeconds()-steal0
		io.Copy(io.Discard, stdout) // drain so the child never blocks on a full pipe
		if err := cmd.Wait(); err != nil || !ready {
			return nil, fmt.Errorf("setup probe %d failed (ready=%v): %v", i, ready, err)
		}
		cpu := (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
		out = append(out, elapsed*unstolen(cpu, steal))
	}
	return out, nil
}

// phaseClock times pipeline phases from outside, through the public
// Options.OnProgress transitions: each transition closes the stretch of
// the previous phase.
type phaseClock struct {
	mu    sync.Mutex
	phase string
	since time.Time
	total map[string]time.Duration
}

func newPhaseClock() *phaseClock { return &phaseClock{total: make(map[string]time.Duration)} }

// observe is the Options.OnProgress hook; it is called concurrently.
func (c *phaseClock) observe(phase string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if phase == c.phase {
		return
	}
	now := time.Now()
	if c.phase != "" {
		c.total[c.phase] += now.Sub(c.since)
	}
	c.phase, c.since = phase, now
}

// stop closes the running phase.
func (c *phaseClock) stop() {
	c.observe("")
}
