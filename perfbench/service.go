package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"owl/internal/obs"
	"owl/internal/service"
)

// repeatFrac is the share of submissions that resubmit one of the
// client's recent (program, seed) pairs, so the result cache is used.
const repeatFrac = 0.2

// historyLen bounds the recent pairs a client may resubmit. Both clients
// together finish far fewer jobs than the cache holds (128) between a
// pair's first run and its repeat, so every repeat is a cache hit.
const historyLen = 16

// newManager starts an in-process detection service: a two-slot
// recording pool shared by two job workers.
func newManager() (*service.Manager, error) {
	m, err := service.NewManager(service.Config{Pool: service.NewPool(2), JobWorkers: 2})
	if err != nil {
		return nil, err
	}
	m.Start()
	return m, nil
}

func drain(m *service.Manager) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = m.Drain(ctx) // a drain that times out leaves nothing to clean up in-process
}

// request builds the job submission of one (program, seed) pair.
func request(s spec, runs int, seed int64) service.JobRequest {
	req := service.JobRequest{Program: s.name, FixedRuns: runs, RandomRuns: runs, Seed: seed}
	if s.evidence.Mode != "" {
		ev := s.evidence
		req.Evidence = &ev
	}
	return req
}

// svcStats are the service-layer observations of a client run.
type svcStats struct {
	queueWait []float64 // Started - Created of executed jobs, seconds
	exec      []float64 // Finished - Started of executed jobs, seconds
	hits      int       // jobs served from the result cache
	done      int       // jobs that reached a terminal state
	rejected  int       // submissions the manager refused
	busy      []float64 // sampled share of busy recording slots
	first     *service.Job
	firstSpec spec
}

// client is one closed-loop submitter: it sends its next job only after
// the previous one is done.
type client struct {
	ctx   context.Context // carries the span recorder of a traced pass
	mgr   *service.Manager
	specs []spec
	runs  int
	rng   *rand.Rand
	hist  []pair
}

type pair struct {
	s    spec
	seed int64
}

func (c *client) next() pair {
	if len(c.hist) > 0 && c.rng.Float64() < repeatFrac {
		return c.hist[c.rng.Intn(len(c.hist))]
	}
	p := pair{c.specs[c.rng.Intn(len(c.specs))], deriveSeed(c.rng)}
	if len(c.hist) == historyLen {
		c.hist = c.hist[1:]
	}
	c.hist = append(c.hist, p)
	return p
}

// loop submits jobs until deadline (at least one) and checks each
// verdict against its program's ground truth.
func (c *client) loop(deadline time.Time, t *tally, st *svcStats) {
	for t.attempted == 0 || time.Now().Before(deadline) {
		p := c.next()
		t.attempted++
		_, sp := obs.Start(c.ctx, "service.job")
		sp.SetStr("program", p.s.name)
		start := time.Now()
		job, err := c.mgr.Submit(request(p.s, c.runs, p.seed))
		if err != nil {
			sp.End()
			st.rejected++
			t.fail(fmt.Errorf("submit %s: %w", p.s.name, err))
			continue
		}
		<-job.Done()
		latency := time.Since(start).Seconds()
		sp.End()
		st.done++
		v := job.View()
		rep := job.Report()
		if v.State != service.StateDone || rep == nil {
			t.fail(fmt.Errorf("job %s (%s): state %s: %s", v.ID, p.s.name, v.State, v.Error))
			continue
		}
		if v.CacheHit {
			st.hits++
		} else {
			encStart := time.Now()
			if _, err := json.Marshal(rep); err != nil {
				t.fail(err)
				continue
			}
			enc := time.Since(encStart).Seconds()
			st.queueWait = append(st.queueWait, v.Started.Sub(v.Created).Seconds())
			st.exec = append(st.exec, v.Finished.Sub(v.Started).Seconds())
			t.detect = append(t.detect, v.Finished.Sub(v.Started).Seconds()+enc)
			if st.first == nil {
				st.first, st.firstSpec = job, p.s
			}
		}
		if err := p.s.truth.check(rep); err != nil {
			t.fail(err)
			continue
		}
		t.latency = append(t.latency, latency)
	}
}

// runClients drives mgr with two closed-loop clients until deadline and
// samples recording-slot occupancy meanwhile. Client job streams derive
// from rng; each job runs inside a span when ctx carries a recorder.
func runClients(ctx context.Context, mgr *service.Manager, specs []spec, runs int, rng *rand.Rand, deadline time.Time) (*tally, *svcStats) {
	const nClients = 2
	tallies := make([]tally, nClients)
	stats := make([]svcStats, nClients)
	var wg sync.WaitGroup
	for i := 0; i < nClients; i++ {
		c := &client{ctx: ctx, mgr: mgr, specs: specs, runs: runs, rng: rand.New(rand.NewSource(rng.Int63()))}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.loop(deadline, &tallies[i], &stats[i])
		}(i)
	}

	stop := make(chan struct{})
	sampled := make(chan []float64)
	go func() {
		var busy []float64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				sampled <- busy
				return
			case <-tick.C:
				r := mgr.Readiness()
				busy = append(busy, float64(r.ActiveSlots)/float64(r.Slots))
			}
		}
	}()
	wg.Wait()
	close(stop)

	t, st := &tally{}, &svcStats{busy: <-sampled}
	for i := range tallies {
		t.merge(&tallies[i])
		s := &stats[i]
		st.queueWait = append(st.queueWait, s.queueWait...)
		st.exec = append(st.exec, s.exec...)
		st.hits += s.hits
		st.done += s.done
		st.rejected += s.rejected
		if st.first == nil {
			st.first, st.firstSpec = s.first, s.firstSpec
		}
	}
	return t, st
}

// serviceBench is the service-mix workload.
type serviceBench struct {
	cfg   config
	mgr   *service.Manager
	mix   []spec
	twins []spec
	rng   *rand.Rand
	// The first job the timed region executed, re-run by verify.
	first     *service.Job
	firstSpec spec
}

func newServiceBench(cfg config) (*serviceBench, error) {
	mix, err := mixSpecs()
	if err != nil {
		return nil, err
	}
	twins, err := mixTwins()
	if err != nil {
		return nil, err
	}
	mgr, err := newManager()
	if err != nil {
		return nil, err
	}
	b := &serviceBench{cfg: cfg, mgr: mgr, mix: mix, twins: twins, rng: rand.New(rand.NewSource(cfg.seed))}
	// Warm-up: one job per program fills the decoded-executor cache and
	// the pools. Its seeds come from the workload stream, so the timed
	// stream never repeats them.
	for _, s := range mix {
		job, err := mgr.Submit(request(s, cfg.jobRuns, deriveSeed(b.rng)))
		if err != nil {
			b.close()
			return nil, fmt.Errorf("warm-up %s: %w", s.name, err)
		}
		<-job.Done()
		if job.State() != service.StateDone {
			b.close()
			return nil, fmt.Errorf("warm-up %s: job %s", s.name, job.View().Error)
		}
	}
	return b, nil
}

func (b *serviceBench) close() { drain(b.mgr) }

func (b *serviceBench) e2e(deadline time.Time) *tally {
	r := beginRegion()
	t, st := runClients(context.Background(), b.mgr, b.mix, b.cfg.jobRuns, b.rng, deadline)
	r.end(t)
	b.first, b.firstSpec = st.first, st.firstSpec
	return t
}

// verify re-detects the first executed job directly through core with
// the job's own options, which must give the same screened sites as the
// service did, and checks the constant-time twins.
func (b *serviceBench) verify(t *tally) {
	checkTwins(t, b.twins, b.cfg.jobRuns, deriveSeed(b.rng))
	if b.first == nil {
		return
	}
	opts := b.first.Opts
	opts.Workers = 2
	t.attempted++
	if err := redetect(b.firstSpec, opts, siteHash(b.first.Report())); err != nil {
		t.fail(err)
	}
}

func (b *serviceBench) layers(p *layerPass, deadline time.Time) error {
	for _, s := range b.mix {
		if err := p.programLayers(s, b.cfg.jobRuns, deriveSeed(b.rng)); err != nil {
			return err
		}
	}
	p.detections(b.mix, b.cfg.jobRuns, b.rng, splitRest(deadline))
	p.serviceLayer(b.mgr, b.mix, b.cfg.jobRuns, b.rng, deadline)
	return nil
}
