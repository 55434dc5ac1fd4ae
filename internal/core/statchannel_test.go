package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"owl/internal/cuda"
	"owl/internal/evidence"
	"owl/internal/gpu"
	"owl/internal/isa"
	"owl/internal/kbuild"
	"owl/internal/obs"
)

// constLookup reads table[input[0]] from one thread: every run of one
// input reads one fixed address, so a constant random-regime generator
// yields a site with zero variance in both regimes and separated means,
// whose Welch t is infinite.
type constLookup struct{ kernel *isa.Kernel }

func newConstLookup() *constLookup {
	b := kbuild.New("constlookup", 2) // table, index
	b.Load(isa.SpaceGlobal, b.Add(b.Param(0), b.Param(1)), 0)
	b.Ret()
	return &constLookup{kernel: b.MustBuild()}
}

func (p *constLookup) Name() string { return "constlookup" }

func (p *constLookup) Run(ctx *cuda.Context, input []byte) error {
	table, err := ctx.Malloc(256)
	if err != nil {
		return err
	}
	return ctx.Launch(p.kernel, gpu.D1(1), gpu.D1(1), int64(table), int64(input[0]))
}

// TestSeparatedZeroVarianceSiteStaysFinite: an infinite |t| is reported
// at evidence.MaxReportedT, so the per-round samples marshal as JSON (the
// service's evidence events carry them field for field), the obs counters
// render as a Chrome trace, and the report marshals, while the site is
// still flagged.
func TestSeparatedZeroVarianceSiteStaysFinite(t *testing.T) {
	o := testOptions()
	o.FixedRuns, o.RandomRuns = 8, 8
	o.Evidence = EvidenceConfig{Mode: EvidenceTVLA}
	var samples []EvidenceSample
	o.OnEvidence = func(s EvidenceSample) { samples = append(samples, s) }
	d, err := NewDetector(o)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(1 << 12)
	gen := func(*rand.Rand) []byte { return []byte{9} }
	rep, err := d.DetectContext(obs.WithRecorder(context.Background(), rec), newConstLookup(), [][]byte{{5}, {6}}, gen)
	if err != nil {
		t.Fatal(err)
	}
	var site *Leak
	for _, l := range rep.ByKind(DataFlowLeak) {
		if strings.Contains(l.Detail, "|t|=+Inf") {
			site = &l
		}
	}
	if site == nil {
		t.Fatalf("premise: no data-flow site with an infinite t:\n%s", rep.Summary())
	}
	if math.Abs(site.TStat) != evidence.MaxReportedT {
		t.Errorf("leak t = %v, want the cap %v", site.TStat, evidence.MaxReportedT)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Errorf("report does not marshal: %v", err)
	}

	if len(samples) == 0 {
		t.Fatal("no evidence samples")
	}
	for _, s := range samples {
		if s.MaxAbsT != evidence.MaxReportedT {
			t.Errorf("round %d: max |t| = %v, want the cap %v", s.Round, s.MaxAbsT, evidence.MaxReportedT)
		}
	}
	if _, err := json.Marshal(samples); err != nil {
		t.Errorf("evidence samples do not marshal: %v", err)
	}
	spans, counters := rec.Snapshot()
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, spans, counters); err != nil {
		t.Errorf("timeline with evidence_max_t does not render: %v", err)
	}
}
