package adcfg

import (
	"bytes"
	"math/rand"
	"testing"

	"owl/internal/isa"
)

// runGraph folds one synthetic run, the i-th of a sequence: a few blocks,
// each visited up to a few times, issue memory instructions whose lane
// addresses follow a pattern chosen by the instruction index.
func runGraph(r *rand.Rand, i int) *Graph {
	g := NewGraph("k")
	f := NewWarpFolder(g, nil)
	for s := 1 + r.Intn(6); s > 0; s-- {
		f.EnterBlock(r.Intn(3))
		for m := 0; m < 5; m++ {
			if r.Intn(4) == 0 {
				continue // not executed on this visit
			}
			lanes := make([]int64, 1+r.Intn(32))
			for l := range lanes {
				switch m {
				case 0: // narrow: a 256-entry table of 4-byte words
					lanes[l] = 4096 + 4*r.Int63n(256)
				case 1: // sparse
					lanes[l] = r.Int63n(1 << 40)
				case 2: // a table drifting run by run: the window widens
					lanes[l] = 1<<20 + 64*int64(i) + r.Int63n(128)
				case 3: // narrow with a rare far outlier: back to sorted runs
					lanes[l] = 8192 + r.Int63n(64)
					if r.Intn(100) == 0 {
						lanes[l] = 1 << 36
					}
				default: // broadcast
					lanes[l] = 77
				}
			}
			f.MemAccess(m, isa.SpaceGlobal, false, lanes)
		}
	}
	f.Finish()
	g.Normalize()
	return g
}

// winShape is a histogram's pending window: base and length.
type winShape struct {
	base uint64
	n    int
}

func windows(g *Graph) map[*MemHist]winShape {
	out := make(map[*MemHist]winShape)
	for _, n := range g.Nodes {
		for _, v := range n.Visits {
			for _, h := range v.Mems {
				if h != nil && h.win != nil {
					out[h] = winShape{h.winBase, len(h.win.Counts)}
				}
			}
		}
	}
	return out
}

// checkWindows asserts every pending window's invariants: the columns are
// empty, both end slots are occupied, and the window holds at most
// denseSpan slots per distinct address.
func checkWindows(t *testing.T, seed int64, g *Graph) {
	t.Helper()
	for h := range windows(g) {
		w := h.win.Counts
		if len(h.Addrs) != 0 || len(h.Counts) != 0 {
			t.Fatalf("seed %d: windowed histogram also holds %d sorted addresses", seed, len(h.Addrs))
		}
		if w[0] == 0 || w[len(w)-1] == 0 {
			t.Fatalf("seed %d: window of %d slots has an empty end", seed, len(w))
		}
		distinct := 0
		for _, c := range w {
			if c != 0 {
				distinct++
			}
		}
		if len(w) > denseSpan*distinct {
			t.Fatalf("seed %d: window of %d slots for %d addresses exceeds %d per address",
				seed, len(w), distinct, denseSpan)
		}
	}
}

// TestAccumulateMatchesMerge drives random sequences of run merges —
// narrow, sparse, widening, out-of-window, with a flush midway followed
// by more merges — through Accumulate and through the sorted-run Merge.
// After Flush both must encode identically. Graphs are recycled between
// seeds, some with windows still pending, so later seeds accumulate into
// pooled histograms and pooled windows.
func TestAccumulateMatchesMerge(t *testing.T) {
	var opened, widened, fellBack int
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		acc, ref := NewGraph("k"), NewGraph("k")
		runs := 1 + r.Intn(24)
		flushAt := r.Intn(runs)
		for i := 0; i < runs; i++ {
			run := runGraph(r, i)
			before := windows(acc)
			acc.Accumulate(run)
			ref.Merge(run)
			Recycle(run)
			after := windows(acc)
			for h, w := range after {
				if b, ok := before[h]; !ok {
					opened++
				} else if b != w {
					widened++
				}
			}
			for h := range before {
				if _, ok := after[h]; !ok {
					fellBack++
				}
			}
			checkWindows(t, seed, acc)
			if i == flushAt {
				acc.Flush()
				if len(windows(acc)) != 0 {
					t.Fatalf("seed %d: windows pending after Flush", seed)
				}
			}
		}
		acc.Flush()
		acc.Flush() // idempotent
		if !bytes.Equal(acc.Encode(), ref.Encode()) {
			t.Fatalf("seed %d: accumulated graph differs from the sorted-run merge", seed)
		}
		if seed%2 == 1 { // recycle with windows pending
			run := runGraph(r, runs)
			acc.Accumulate(run)
			Recycle(run)
		}
		Recycle(acc)
		Recycle(ref)
	}
	if opened == 0 || widened == 0 || fellBack == 0 {
		t.Fatalf("windows opened %d, widened %d, fell back %d times: a path went untested",
			opened, widened, fellBack)
	}
}

// TestMergeFlushesWindows merges canonically into a graph with pending
// windows: the histograms Merge touches come out canonical and equal to
// the sorted-run result.
func TestMergeFlushesWindows(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a, b := runGraph(r, 0), runGraph(r, 1)
	acc, ref := NewGraph("k"), NewGraph("k")
	acc.Accumulate(a)
	ref.Merge(a)
	if len(windows(acc)) == 0 {
		t.Fatal("no window opened; test is vacuous")
	}
	acc.Merge(b)
	ref.Merge(b)
	acc.Flush()
	if !bytes.Equal(acc.Encode(), ref.Encode()) {
		t.Fatal("Merge into a windowed graph differs from the sorted-run merge")
	}
}

// TestPendingWindowReadsPanic reads an accumulated graph before Flush:
// every reader that would see a windowed histogram's empty columns
// panics instead, and after Flush they all succeed.
func TestPendingWindowReadsPanic(t *testing.T) {
	acc := NewGraph("k")
	acc.Accumulate(runGraph(rand.New(rand.NewSource(5)), 0))
	var h *MemHist
	for h = range windows(acc) {
		break
	}
	if h == nil {
		t.Fatal("no window opened; test is vacuous")
	}
	reads := map[string]func(){
		"Encode":          func() { acc.Encode() },
		"Hash":            func() { acc.Hash() },
		"SizeBytes":       func() { acc.SizeBytes() },
		"Equal":           func() { acc.Equal(acc) },
		"MarshalJSON":     func() { acc.MarshalJSON() },
		"Clone":           func() { acc.Clone() },
		"Merge from":      func() { NewGraph("k").Merge(acc) },
		"Accumulate from": func() { NewGraph("k").Accumulate(acc) },
		"Len":             func() { h.Len() },
		"Total":           func() { h.Total() },
	}
	panics := func(read func()) (p bool) {
		defer func() { p = recover() != nil }()
		read()
		return false
	}
	for name, read := range reads {
		if !panics(read) {
			t.Errorf("%s with a merge window pending did not panic", name)
		}
	}
	acc.Flush()
	for name, read := range reads {
		if panics(read) {
			t.Errorf("%s after Flush panicked", name)
		}
	}
}
