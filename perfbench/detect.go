package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"owl/internal/core"
)

// detectBench is an aes128-* workload: one client running full
// detections back to back, each on two recording workers.
type detectBench struct {
	cfg  config
	aes  spec
	twin spec
	rng  *rand.Rand // detection seeds
	// The first timed detection, re-run untimed by verify.
	firstSeed int64
	firstHash uint64
}

func newDetectBench(cfg config) (*detectBench, error) {
	aes, twin, err := aesSpecs(cfg.workload)
	if err != nil {
		return nil, err
	}
	b := &detectBench{cfg: cfg, aes: aes, twin: twin, rng: rand.New(rand.NewSource(cfg.seed))}
	if _, err := detectOnce(context.Background(), aes, cfg.runs, deriveSeed(b.rng), nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return b, nil
}

func (b *detectBench) close() {}

// e2e detects with a fresh seed per detection until deadline (at least
// once). A detection's time covers DetectContext and the JSON encoding of
// its report; the verdict check follows outside it.
func (b *detectBench) e2e(deadline time.Time) *tally {
	t := &tally{}
	r := beginRegion()
	for t.attempted == 0 || time.Now().Before(deadline) {
		seed := deriveSeed(b.rng)
		t.attempted++
		start := time.Now()
		rep, err := detectOnce(context.Background(), b.aes, b.cfg.runs, seed, nil)
		if err == nil {
			_, err = json.Marshal(rep)
		}
		elapsed := time.Since(start).Seconds()
		if err == nil {
			err = b.aes.truth.check(rep)
		}
		if err != nil {
			t.fail(err)
			continue
		}
		t.latency = append(t.latency, elapsed)
		t.detect = append(t.detect, elapsed)
		if b.firstSeed == 0 {
			b.firstSeed, b.firstHash = seed, siteHash(rep)
		}
	}
	r.end(t)
	return t
}

// verify re-runs the first timed detection, whose screened sites must
// repeat exactly, and checks the scatter-gather twin.
func (b *detectBench) verify(t *tally) {
	checkTwins(t, []spec{b.twin}, b.cfg.runs, deriveSeed(b.rng))
	if b.firstSeed == 0 {
		return
	}
	t.attempted++
	if err := redetect(b.aes, b.aes.options(b.cfg.runs, b.firstSeed), b.firstHash); err != nil {
		t.fail(err)
	}
}

func (b *detectBench) layers(p *layerPass, deadline time.Time) error {
	if err := p.programLayers(b.aes, b.cfg.runs, deriveSeed(b.rng)); err != nil {
		return err
	}
	p.detections([]spec{b.aes}, b.cfg.runs, b.rng, splitRest(deadline))
	mgr, err := newManager()
	if err != nil {
		return err
	}
	defer drain(mgr)
	p.serviceLayer(mgr, []spec{b.aes}, b.cfg.runs, b.rng, deadline)
	return nil
}

// runsOf returns the instrumented executions a detection recorded: the
// user inputs plus the analysis runs.
func runsOf(rep *core.Report) int {
	if rep.RunsUsed > 0 {
		return rep.Inputs + rep.RunsUsed
	}
	return rep.Inputs + rep.Stats.EvidenceTraces
}
