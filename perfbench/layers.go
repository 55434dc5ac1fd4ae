package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"owl/internal/core"
	"owl/internal/cuda"
	"owl/internal/evidence"
	"owl/internal/gpu"
	"owl/internal/htmlreport"
	"owl/internal/obs"
	"owl/internal/service"
	"owl/internal/trace"
	"owl/internal/tracer"
)

// layerReps is how many times each single-run layer call is timed per
// program; the figure reported is the median.
const layerReps = 30

// maxTracedDetections caps the traced detections of one pass, so every
// span of the pass fits the flight recorder.
const maxTracedDetections = 8

// layerSpans names the spans the benchmark wraps around layer calls, plus
// the program's own detection span; the timeline must hold every one.
var layerSpans = []string{
	"cuda.context", "simt.exec", "tracer.exec", "microarch.exec",
	"trace.hash", "trace.gob_encode", "trace.gob_decode",
	"core.merge", "evidence.observe", "evidence.verdicts",
	"bench.detect", "detect", "core.report_json", "core.sites", "htmlreport.render",
	"service.job",
}

// layerPass is the traced per-layer run: every layer call runs inside a
// span of the pass's recorder, and each layer metric is the mean of its
// per-program values (service-mix has four programs, aes128-* one).
type layerPass struct {
	cfg   config
	rec   *obs.Recorder
	ctx   context.Context
	tally *tally

	values  map[string][]float64
	units   map[string]string
	hash    uint64 // combined screened-site hash of every program
	metrics map[string]metric
}

func newLayerPass(cfg config) *layerPass {
	rec := obs.NewRecorder(1 << 15)
	return &layerPass{
		cfg:    cfg,
		rec:    rec,
		ctx:    obs.WithRecorder(context.Background(), rec),
		tally:  &tally{},
		values: make(map[string][]float64),
		units:  make(map[string]string),
	}
}

func (p *layerPass) add(name, unit string, v float64) {
	p.values[name] = append(p.values[name], v)
	p.units[name] = unit
}

// timed runs f inside a span and returns f's duration, measured inside
// the span so span bookkeeping stays out of the figure.
func timed(ctx context.Context, name string, f func() error) (time.Duration, error) {
	_, sp := obs.Start(ctx, name)
	defer sp.End()
	start := time.Now()
	err := f()
	return time.Since(start), err
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// exact checks that an exact counter repeats across reps.
func (p *layerPass) exact(name string, want *int64, got int64) {
	if *want < 0 {
		*want = got
		return
	}
	if got != *want {
		p.tally.fail(fmt.Errorf("exact counter %s changed between identical runs: %d then %d", name, *want, got))
	}
}

// execute runs p once on a fresh context observed by o (nil for an
// untraced run) and returns the run's duration and instruction count.
func execute(ctx context.Context, span string, s spec, input []byte, seed int64, o cuda.Observer) (time.Duration, int64, error) {
	cctx, err := cuda.NewContext(gpu.DefaultConfig(), rand.New(rand.NewSource(seed)), o)
	if err != nil {
		return 0, 0, err
	}
	defer cctx.Close()
	d, err := timed(ctx, span, func() error { return s.prog.Run(cctx, input) })
	return d, cctx.Stats().Instructions, err
}

// programLayers times each layer's entry point on one program: the
// simulated device context, untraced and traced execution, the cost
// channel, the trace codecs, and a detection's worth of evidence merges
// into core.Evidence and evidence.Engine.
func (p *layerPass) programLayers(s spec, runs int, seed int64) error {
	ctx, root := obs.Start(p.ctx, "bench.layers")
	root.SetStr("program", s.name)
	defer root.End()
	input := s.inputs[0]
	var ctxT, simtT, tracerT, costT, hashT, encT, decT []float64
	instrs, size, gobSize := int64(-1), int64(-1), int64(-1)
	for i := 0; i < layerReps; i++ {
		d, err := timed(ctx, "cuda.context", func() error {
			c, err := cuda.NewContext(gpu.DefaultConfig(), rand.New(rand.NewSource(seed)), nil)
			if err == nil {
				c.Close()
			}
			return err
		})
		if err != nil {
			return err
		}
		ctxT = append(ctxT, us(d))

		d, n, err := execute(ctx, "simt.exec", s, input, seed, nil)
		if err != nil {
			return err
		}
		simtT = append(simtT, us(d))
		p.exact("simt.instrs_per_exec", &instrs, n)

		tr := tracer.New(s.prog.Name())
		if d, _, err = execute(ctx, "tracer.exec", s, input, seed, tr); err != nil {
			return err
		}
		tracerT = append(tracerT, us(d))
		ct := tracer.New(s.prog.Name(), tracer.WithCost())
		if d, _, err = execute(ctx, "microarch.exec", s, input, seed, ct); err != nil {
			return err
		}
		costT = append(costT, us(d))
		trace.Release(ct.Trace())

		t := tr.Trace()
		p.exact("trace.bytes", &size, int64(t.SizeBytes()))
		d, _ = timed(ctx, "trace.hash", func() error { t.Hash(); return nil })
		hashT = append(hashT, us(d))
		var buf bytes.Buffer
		if d, err = timed(ctx, "trace.gob_encode", func() error { return t.WriteGob(&buf) }); err != nil {
			return err
		}
		encT = append(encT, us(d))
		p.exact("trace.gob_bytes", &gobSize, int64(buf.Len()))
		var back *trace.ProgramTrace
		if d, err = timed(ctx, "trace.gob_decode", func() (err error) {
			back, err = trace.ReadGob(&buf)
			return err
		}); err != nil {
			return err
		}
		decT = append(decT, us(d))
		trace.Release(back)
		trace.Release(t)
	}
	p.add("cuda.context_us", "us", median(ctxT))
	p.add("simt.exec_us", "us", median(simtT))
	p.add("simt.instrs_per_exec", "count", float64(instrs))
	p.add("simt.mips", "MIPS", float64(instrs)/median(simtT))
	p.add("tracer.exec_us", "us", median(tracerT))
	p.add("tracer.fold_us", "us", median(tracerT)-median(simtT))
	p.add("microarch.cost_us", "us", median(costT)-median(tracerT))
	p.add("trace.bytes", "B", float64(size))
	p.add("trace.hash_us", "us", median(hashT))
	p.add("trace.gob_bytes", "B", float64(gobSize))
	p.add("trace.gob_encode_us", "us", median(encT))
	p.add("trace.gob_decode_us", "us", median(decT))
	return p.mergeLayers(ctx, s, runs, seed)
}

// mergeLayers records one class's worth of fixed and random runs, as the
// detector does, and feeds each trace to both evidence paths: the diff
// path's core.Evidence and the statistical path's evidence.Engine.
func (p *layerPass) mergeLayers(ctx context.Context, s spec, runs int, seed int64) error {
	var opts []tracer.Option
	if s.evidence.CostEnabled() {
		opts = append(opts, tracer.WithCost())
	}
	eFix, eRnd := core.NewEvidence(), core.NewEvidence()
	eng := evidence.NewEngine(evidence.Config{TThreshold: s.evidence.TVLAThreshold, MIBins: s.evidence.MIBins})
	rng := rand.New(rand.NewSource(seed))
	var mergeT, observeT []float64
	for i := 0; i < 2*runs; i++ {
		regime, input, ev := evidence.Fixed, s.inputs[0], eFix
		if i >= runs {
			regime, input, ev = evidence.Random, s.gen(rng), eRnd
		}
		tr := tracer.New(s.prog.Name(), opts...)
		cctx, err := cuda.NewContext(gpu.DefaultConfig(), rand.New(rand.NewSource(rng.Int63())), tr)
		if err != nil {
			return err
		}
		err = s.prog.Run(cctx, input)
		cctx.Close()
		if err != nil {
			return err
		}
		t := tr.Trace()
		d, _ := timed(ctx, "evidence.observe", func() error { eng.Observe(regime, t); return nil })
		observeT = append(observeT, us(d))
		d, _ = timed(ctx, "core.merge", func() error { ev.AddRun(t); return nil })
		mergeT = append(mergeT, us(d))
		trace.Release(t)
	}
	d, _ := timed(ctx, "evidence.verdicts", func() error { eng.Verdicts(); return nil })
	p.add("core.merge_us", "us", median(mergeT))
	p.add("core.evidence_mb", "MB", float64(eFix.SizeBytes()+eRnd.SizeBytes())/1e6)
	p.add("evidence.observe_us", "us", median(observeT))
	p.add("evidence.verdicts_ms", "ms", float64(d)/float64(time.Millisecond))
	return nil
}

// runtimeCounters reads heap allocation and CPU accounting.
func runtimeCounters() (allocBytes, gcCPU, totalCPU float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()
}

// tracedDetection runs one detection inside a bench.detect span, with
// the report's JSON encoding, site export and HTML rendering in spans of
// their own, and checks its verdicts.
func (p *layerPass) tracedDetection(s spec, runs int, seed int64) (elapsed, enc, sites, html time.Duration, rep *core.Report, err error) {
	ctx, sp := obs.Start(p.ctx, "bench.detect")
	sp.SetStr("program", s.name)
	defer sp.End()
	start := time.Now()
	if rep, err = detectOnce(ctx, s, runs, seed, nil); err != nil {
		return
	}
	if enc, err = timed(ctx, "core.report_json", func() error { _, err := json.Marshal(rep); return err }); err != nil {
		return
	}
	elapsed = time.Since(start)
	sites, _ = timed(ctx, "core.sites", func() error { rep.Sites(); return nil })
	if html, err = timed(ctx, "htmlreport.render", func() error {
		return htmlreport.Render(io.Discard, htmlreport.Page{Report: rep})
	}); err != nil {
		return
	}
	err = s.truth.check(rep)
	return
}

// splitRest returns the time three quarters of the way from now to
// deadline: the traced pass gives that much to detections and the rest
// to the service clients.
func splitRest(deadline time.Time) time.Time {
	now := time.Now()
	return now.Add(deadline.Sub(now) * 3 / 4)
}

// detections runs pairs of identical detections, cycling through specs,
// until deadline (at most maxTracedDetections pairs): first traced, then untraced with its phases
// timed through OnProgress. The two of a pair must flag exactly the same
// sites, and the ratio of their times is the tracing overhead. Process
// CPU, allocation and GC figures cover the untraced detections only.
func (p *layerPass) detections(specs []spec, runs int, rng *rand.Rand, deadline time.Time) {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	clock := newPhaseClock()
	var traced, untraced, reportT, sitesT, htmlT, leaks, classes []float64
	var runsDone, used, budgeted int
	var wall, cpu, alloc, gcCPU, totalCPU float64
	for i := 0; i < maxTracedDetections && (i < len(specs) || time.Now().Before(deadline)); i++ {
		s, seed := specs[i%len(specs)], deriveSeed(rng)
		p.tally.attempted++
		elapsed, enc, sites, html, tracedRep, err := p.tracedDetection(s, runs, seed)
		if err != nil {
			p.tally.fail(err)
			continue
		}

		p.tally.attempted++
		cpu0 := cpuSeconds()
		alloc0, gc0, total0 := runtimeCounters()
		start := time.Now()
		rep, err := detectOnce(context.Background(), s, runs, seed, func(pr core.Progress) { clock.observe(pr.Phase) })
		if err == nil {
			_, err = json.Marshal(rep)
		}
		plain := time.Since(start)
		clock.stop()
		alloc1, gc1, total1 := runtimeCounters()
		cpu += cpuSeconds() - cpu0
		wall += plain.Seconds()
		alloc, gcCPU, totalCPU = alloc+alloc1-alloc0, gcCPU+gc1-gc0, totalCPU+total1-total0
		if err == nil && siteHash(rep) != siteHash(tracedRep) {
			err = fmt.Errorf("%s seed %d: traced and untraced detections flagged different sites", s.name, seed)
		}
		if err != nil {
			p.tally.fail(err)
			continue
		}
		traced = append(traced, elapsed.Seconds())
		untraced = append(untraced, plain.Seconds())
		reportT, sitesT, htmlT = append(reportT, ms(enc)), append(sitesT, ms(sites)), append(htmlT, ms(html))
		runsDone += runsOf(rep)
		if rep.RunsBudget > 0 {
			used, budgeted = used+rep.RunsUsed, budgeted+rep.RunsBudget
		} else { // the diff path always records its whole budget
			used, budgeted = used+rep.Stats.EvidenceTraces, budgeted+rep.Stats.EvidenceTraces
		}
		if i < len(specs) { // exact counters: the first detection of each program
			leaks = append(leaks, float64(len(rep.Leaks)))
			classes = append(classes, float64(rep.Classes))
			p.hash = p.hash*1099511628211 ^ siteHash(rep)
		}
	}
	n := float64(len(untraced))
	p.add("core.classify_s", "s", div(clock.total[core.PhaseClassify].Seconds(), n))
	p.add("core.record_s", "s", div(clock.total[core.PhaseRecord].Seconds(), n))
	p.add("core.analyze_s", "s", div(clock.total[core.PhaseAnalyze].Seconds(), n))
	p.add("core.parallel_eff", "ratio", div(cpu, wall*2))
	p.add("core.leaks", "count", mean(leaks))
	p.add("core.classes", "count", mean(classes))
	p.add("core.report_json_ms", "ms", mean(reportT))
	p.add("core.sites_ms", "ms", mean(sitesT))
	p.add("htmlreport.render_ms", "ms", mean(htmlT))
	p.add("evidence.runs_used_frac", "ratio", div(float64(used), float64(budgeted)))
	p.add("obs.overhead_frac", "ratio", div(sum(traced), sum(untraced))-1)
	p.add("runtime.alloc_mb_per_run", "MB", div(alloc/1e6, float64(runsDone)))
	p.add("runtime.gc_cpu_frac", "ratio", div(gcCPU, totalCPU))
}

func sum(xs []float64) float64 { return mean(xs) * float64(len(xs)) }

// div returns a/b, or 0 when there is nothing to divide by (a pass whose
// detections all failed, or a region too short for the runtime to have
// accounted any CPU).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// serviceLayer drives mgr with the closed-loop clients until deadline and
// reports the service layer's queueing, execution, cache and slot use.
func (p *layerPass) serviceLayer(mgr *service.Manager, specs []spec, runs int, rng *rand.Rand, deadline time.Time) {
	t, st := runClients(p.ctx, mgr, specs, runs, rng, deadline)
	p.tally.merge(t)
	p.add("service.queue_wait_s", "s", median(st.queueWait))
	p.add("service.exec_s", "s", median(st.exec))
	p.add("service.cache_hit_ratio", "ratio", div(float64(st.hits), float64(st.done)))
	p.add("service.slot_busy_frac", "ratio", mean(st.busy))
	p.add("service.rejected", "count", float64(st.rejected))
	p.add("service.jobs_retained", "count", float64(len(mgr.Jobs())))
}

// finish writes and validates the timeline, prints the self-time table,
// and computes the per-layer metrics.
func (p *layerPass) finish(w io.Writer) error {
	spans, all := p.rec.Snapshot()
	// The program records an infinite evidence_max_t counter in some
	// statistical detections, and JSON cannot encode it; such samples are
	// left out of the timeline and counted here.
	counters := all[:0]
	nonFinite := make(map[string]int)
	for _, c := range all {
		if math.IsInf(c.Value, 0) || math.IsNaN(c.Value) {
			nonFinite[c.Name]++
			continue
		}
		counters = append(counters, c)
	}
	if len(nonFinite) > 0 {
		fmt.Fprintf(w, "timeline: left out non-finite counter samples %v\n", nonFinite)
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, spans, counters); err != nil {
		return err
	}
	p.tally.attempted++
	if err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		p.tally.fail(fmt.Errorf("timeline: %w", err))
	}
	seen := make(map[string]bool)
	for _, s := range spans {
		seen[s.Name] = true
	}
	for _, name := range layerSpans {
		if !seen[name] {
			p.tally.fail(fmt.Errorf("timeline: no %q span", name))
		}
	}
	if err := os.MkdirAll(p.cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(p.cfg.outDir, fmt.Sprintf("%s-seed%d.trace.json", p.cfg.workload, p.cfg.seed))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "timeline: %s (%d spans, %d dropped)\n", path, len(spans), p.rec.Dropped())
	printSelfTimes(w, spans)

	p.metrics = make(map[string]metric, len(p.values)+2)
	for name, vs := range p.values {
		p.metrics[name] = metric{mean(vs), p.units[name]}
	}
	p.metrics["core.site_set_hash"] = metric{float64(p.hash & (1<<48 - 1)), "hash"}
	p.metrics["error_rate"] = metric{div(float64(p.tally.failed), float64(p.tally.attempted)), "ratio"}
	return nil
}
