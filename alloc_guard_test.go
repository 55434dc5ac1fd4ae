package owl_test

// TestWarpInterpAllocsCostOff pins the per-execution allocation counts of
// the untraced fast path. The microarchitectural cost channel rides the
// same interpreter, so this guard is what keeps cost-off runs paying
// nothing for it: a hook wired into the hot loop unconditionally, or a
// collector allocated per warp regardless of the channel list, shows up
// here as an extra alloc before it shows up as a benchgate regression.

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"owl/internal/core"
	"owl/internal/cuda"
	"owl/internal/gpu"
	"owl/internal/trace"
	"owl/internal/workloads/gpucrypto"
	"owl/internal/workloads/jpeg"
)

func TestWarpInterpAllocsCostOff(t *testing.T) {
	cases := []struct {
		name   string
		prog   func() (cuda.Program, error)
		input  []byte
		allocs float64
	}{
		{
			name:   "aes128",
			prog:   func() (cuda.Program, error) { return gpucrypto.NewAES(gpucrypto.WithBlocks(16)), nil },
			input:  []byte("0123456789abcdef"),
			allocs: 6,
		},
		{
			name:   "rsa",
			prog:   func() (cuda.Program, error) { return gpucrypto.NewRSA(gpucrypto.WithMessages(16)), nil },
			input:  []byte{0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0xff, 0x00},
			allocs: 7,
		},
		{
			name: "jpeg-encode",
			prog: func() (cuda.Program, error) {
				enc, err := jpeg.NewEncoder(16, 16)
				return enc, err
			},
			input:  jpeg.SynthImage(16, 16, 1),
			allocs: 17,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.prog()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			// Warm once so pool priming and lazy program caches do not
			// count against the steady state.
			warm, err := cuda.NewContext(gpu.DefaultConfig(), rng, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Run(warm, tc.input); err != nil {
				t.Fatal(err)
			}
			warm.Close()
			got := testing.AllocsPerRun(50, func() {
				ctx, err := cuda.NewContext(gpu.DefaultConfig(), rng, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Run(ctx, tc.input); err != nil {
					t.Fatal(err)
				}
				ctx.Close()
			})
			if got != tc.allocs {
				t.Errorf("allocs/exec = %v, want %v (cost-off fast path regressed)", got, tc.allocs)
			}
		})
	}
}

// TestTracedRecordAllocs pins the allocations of one traced aes128
// recording, released afterwards as the evidence pipeline does — the unit
// of work a detection repeats hundreds of times per class. The columnar
// A-DCFG folds each warp's buffered events straight into the invocation
// graph, compacts every histogram once, and recycles the graph, so the
// count is machine-independent: a per-warp graph, a per-event map, a
// histogram re-sorted per warp, or a lost recycling path shows up here as
// a jump.
func TestTracedRecordAllocs(t *testing.T) {
	det, err := core.NewDetector(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := gpucrypto.NewAES(gpucrypto.WithBlocks(16))
	key := []byte("0123456789abcdef")
	record := func() {
		tr, err := det.RecordOnce(p, key)
		if err != nil {
			t.Fatal(err)
		}
		trace.Release(tr) // as the evidence pipeline does after a merge
	}
	// A collection empties sync.Pools, and a pooled object put on one P is
	// invisible to another P's Get, so GC timing and scheduling would move
	// the count; with GC off and one P it is exact.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 5; i++ { // warm pools and caches
		record()
	}
	// A stray pooled object left by earlier work can only save an
	// allocation, so the steady state is the largest of a few samples.
	var got float64
	for i := 0; i < 3; i++ {
		got = max(got, testing.AllocsPerRun(50, record))
	}
	if want := 29.0; got != want {
		t.Errorf("allocs/record = %v, want %v (traced recording path changed)", got, want)
	}
}

// TestEvidenceAddRunAllocs pins the allocations of merging one
// random-regime aes128 run into evidence that has already absorbed many:
// the unit of work the random regime repeats. By then every narrow
// address histogram counts into its merge window in place, so a merge
// allocates only the run's sample vectors and the sequence alignment; a
// window opened, widened or copied per merge, or a merge that leaves the
// windows and re-sorts, shows up here as a jump. A second evidence fed
// the same runs is flushed after every merge, which returns its windows
// to the histogram pool and makes the next merge open them again: taken
// from the pool, they cost nothing, so both counts are equal.
func TestEvidenceAddRunAllocs(t *testing.T) {
	det, err := core.NewDetector(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := gpucrypto.NewAES(gpucrypto.WithBlocks(16))
	rng := rand.New(rand.NewSource(1))
	var runs []*trace.ProgramTrace
	for i := 0; i < 8; i++ {
		key := make([]byte, 16)
		rng.Read(key)
		tr, err := det.RecordOnce(p, key)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, tr)
	}
	// As in TestTracedRecordAllocs: no collection may empty the pool.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	merger := func(flush bool) func() {
		ev, next := core.NewEvidence(), 0
		return func() {
			ev.AddRun(runs[next%len(runs)])
			next++
			if flush {
				ev.Flush()
			}
		}
	}
	plain, flushed := merger(false), merger(true)
	for i := 0; i < 64; i++ { // every address seen, every window open
		plain()
		flushed()
	}
	// Sample vectors grow with the run count, so both sides measure the
	// same span of runs.
	for _, tc := range []struct {
		name  string
		merge func()
	}{{"AddRun", plain}, {"AddRun+Flush", flushed}} {
		if got, want := testing.AllocsPerRun(64, tc.merge), 13.0; got != want {
			t.Errorf("allocs per %s = %v, want %v (evidence merge path changed)", tc.name, got, want)
		}
	}
}
