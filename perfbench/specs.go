package main

import (
	"context"
	"fmt"

	"owl/internal/core"
	"owl/internal/cuda"
	"owl/internal/experiments"
	"owl/internal/workloads/gpucrypto"
)

// spec is one program under test: its registry name, user inputs and
// random-input generator, the evidence configuration it is detected
// under, and the ground truth its verdicts are checked against.
type spec struct {
	name     string
	prog     cuda.Program
	inputs   [][]byte
	gen      cuda.InputGen
	evidence core.EvidenceConfig
	truth    expect
}

// Workload names, as passed to --workload.
const (
	wAESDiff    = "aes128-diff"
	wAESStat    = "aes128-stat"
	wServiceMix = "service-mix"
)

var workloads = []string{wAESDiff, wAESStat, wServiceMix}

// statEvidence is the statistical-path configuration of aes128-stat and
// of the cost-channel programs: TVLA over the A-DCFG and the
// microarchitectural cost observables, with sequential early stopping.
func statEvidence(earlyStop bool) core.EvidenceConfig {
	return core.EvidenceConfig{
		Mode:      core.EvidenceTVLA,
		Channels:  []string{core.ChannelADCFG, core.ChannelCost},
		EarlyStop: core.EarlyStopPolicy{Enabled: earlyStop},
	}
}

// aesSpecs returns the AES program of the aes128-* workloads, with the
// registry's three user keys (three input classes), and its
// scatter-gather twin on the same keys. Every detection seed derives from
// the workload seed, so the random-regime keys the program sees are
// generated from it.
func aesSpecs(workload string) (spec, spec, error) {
	t, err := experiments.FindTarget("libgpucrypto/aes128")
	if err != nil {
		return spec{}, spec{}, err
	}
	var ev core.EvidenceConfig
	if workload == wAESStat {
		ev = statEvidence(true)
	}
	aes := spec{name: t.Program.Name(), prog: t.Program, inputs: t.Inputs, gen: t.Gen, evidence: ev, truth: expectAES}
	twin := aes
	twin.name = "libgpucrypto/aes128 (scatter-gather)"
	twin.prog = gpucrypto.NewAES(gpucrypto.WithBlocks(32), gpucrypto.WithScatterGather())
	twin.truth = expectAESScatterGather
	// The twin's guarantee covers addresses and branches, so it is checked
	// on the A-DCFG alone: its key-dependent power proxy would split every
	// key into its own class and cost a full scatter-gather analysis.
	twin.evidence.Channels = nil
	return aes, twin, nil
}

// mixSpecs returns the four programs of the service-mix job stream, in
// the order the stream draws them.
func mixSpecs() ([]spec, error) {
	entries := []struct {
		name     string
		evidence core.EvidenceConfig
		truth    expect
	}{
		{"libgpucrypto/rsa", core.EvidenceConfig{}, expectRSA},
		{"media/tokenize", core.EvidenceConfig{}, expectTokenize},
		{"workloads/shmem-leaky", statEvidence(false), expectShmemLeaky},
		{"pytorch/nllloss", core.EvidenceConfig{}, expectNLLLoss},
	}
	out := make([]spec, len(entries))
	for i, e := range entries {
		t, err := experiments.FindTarget(e.name)
		if err != nil {
			return nil, err
		}
		out[i] = spec{name: e.name, prog: t.Program, inputs: t.Inputs, gen: t.Gen, evidence: e.evidence, truth: e.truth}
	}
	return out, nil
}

// mixTwins returns the constant-time twins of the service-mix programs:
// RSA with a Montgomery ladder, and the padded shared-memory gather under
// the cost channel.
func mixTwins() ([]spec, error) {
	rsa, err := experiments.FindTarget("libgpucrypto/rsa")
	if err != nil {
		return nil, err
	}
	padded, err := experiments.FindTarget("workloads/shmem-padded")
	if err != nil {
		return nil, err
	}
	return []spec{
		{name: "libgpucrypto/rsa (Montgomery ladder)", prog: gpucrypto.NewRSA(gpucrypto.WithMessages(32), gpucrypto.WithMontgomeryLadder()),
			inputs: rsa.Inputs, gen: rsa.Gen, truth: expectRSALadder},
		{name: padded.Program.Name(), prog: padded.Program, inputs: padded.Inputs, gen: padded.Gen,
			evidence: statEvidence(false), truth: expectShmemPadded},
	}, nil
}

// options returns the detector options every detection of the benchmark
// uses: the paper's defaults with the given run count per regime, two
// recording workers, and the spec's evidence configuration.
func (s spec) options(runs int, seed int64) core.Options {
	opts := core.DefaultOptions()
	opts.FixedRuns, opts.RandomRuns = runs, runs
	opts.Workers = 2
	opts.Seed = seed
	opts.Evidence = s.evidence
	return opts
}

// checkTwins detects every twin once, untimed, and counts each twin that
// reports a leak its construction rules out as a failure.
func checkTwins(t *tally, twins []spec, runs int, seed int64) {
	for _, tw := range twins {
		t.attempted++
		rep, err := detectOnce(context.Background(), tw, runs, seed, nil)
		if err == nil {
			err = tw.truth.check(rep)
		}
		if err != nil {
			t.fail(fmt.Errorf("twin %s: %w", tw.name, err))
		}
	}
}

// detectOnce runs one detection of s; onProgress may be nil.
func detectOnce(ctx context.Context, s spec, runs int, seed int64, onProgress func(core.Progress)) (*core.Report, error) {
	opts := s.options(runs, seed)
	opts.OnProgress = onProgress
	return detectWith(ctx, s, opts)
}

func detectWith(ctx context.Context, s spec, opts core.Options) (*core.Report, error) {
	det, err := core.NewDetector(opts)
	if err != nil {
		return nil, err
	}
	rep, err := det.DetectContext(ctx, s.prog, s.inputs, s.gen)
	if err != nil {
		return nil, fmt.Errorf("detect %s seed %d: %w", s.name, opts.Seed, err)
	}
	return rep, nil
}

// redetect runs one detection with opts and checks that its screened
// sites hash to want.
func redetect(s spec, opts core.Options, want uint64) error {
	rep, err := detectWith(context.Background(), s, opts)
	if err != nil {
		return fmt.Errorf("re-detect: %w", err)
	}
	if got := siteHash(rep); got != want {
		return fmt.Errorf("re-detect %s seed %d: screened-site hash %x, first detection %x", s.name, opts.Seed, got, want)
	}
	return nil
}
