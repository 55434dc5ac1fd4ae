package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"owl/internal/core"
	"owl/internal/obs"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// smoke run spawns its set-up probes.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--setup-probe" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type declared struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSmokeWorkloads runs every workload at a tiny size, untraced and
// traced, and checks that the last line names every declared metric with
// its declared unit and that every verdict passed.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs detect for several seconds")
	}
	d := loadDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(d.Workloads), len(workloads))
	}
	for _, w := range d.Workloads {
		for _, traced := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.Name, traced), func(t *testing.T) {
				var out, errOut bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "7", "--seconds", "0", "--trace", fmt.Sprint(traced),
					"--runs", "12", "--job-runs", "12", "--out", t.TempDir()}
				if code := run(args, &out, &errOut); code != 0 {
					t.Fatalf("exit %d: %s", code, errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, errOut.String())
				}
				want := d.EndToEnd
				if traced == 1 {
					want = d.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not printed", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s: unit %q, declared %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// TestVerdictCheckRejectsWrongExpectation runs one small AES detection and
// checks that the ground truth passes it while deliberately wrong
// expectations fail it, so a broken check cannot pass silently.
func TestVerdictCheckRejectsWrongExpectation(t *testing.T) {
	aes, _, err := aesSpecs(wAESDiff)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := detectOnce(context.Background(), aes, 12, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := expectAES.check(rep); err != nil {
		t.Fatalf("ground truth rejects the T-table AES report: %v", err)
	}
	wrong := map[string]expect{
		"planted site that does not exist": {flagged: []site{{core.DataFlowLeak, "aes.nonexistent"}}},
		"control-flow leak AES lacks":      {flagged: []site{{core.ControlFlowLeak, ""}}},
		"twin expectation on leaky AES":    expectAESScatterGather,
		"annotation the loads do not have": {annotated: "public index"},
	}
	for name, e := range wrong {
		if err := e.check(rep); err == nil {
			t.Errorf("%s: check passed a report it must reject", name)
		}
	}
}

// TestCovered checks the self-time arithmetic on overlapping children.
func TestCovered(t *testing.T) {
	ms := time.Millisecond
	parent := &obs.SpanRecord{Start: 0, End: 10 * ms}
	kids := []*obs.SpanRecord{
		{Start: 1 * ms, End: 4 * ms},
		{Start: 2 * ms, End: 5 * ms},  // overlaps the first: counted once
		{Start: 8 * ms, End: 12 * ms}, // clipped to the parent
	}
	if got, want := covered(parent, kids), 6*ms; got != want {
		t.Fatalf("covered = %v, want %v", got, want)
	}
}
