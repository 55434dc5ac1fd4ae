package adcfg

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"owl/internal/isa"
)

// Oracle tests: the columnar fold must agree, byte for byte under Encode,
// with a direct map-based fold of the same warp streams.

// warpEvent is one recorded hook call: a block entry (mem < 0) or a
// memory access of the current block.
type warpEvent struct {
	block, mem int
	store      bool
	addrs      []int64
}

// randomWarp draws a warp stream over a few blocks; addresses come from a
// narrow table, a wide sparse range, or a single broadcast slot.
func randomWarp(r *rand.Rand) []warpEvent {
	var out []warpEvent
	for s := 1 + r.Intn(8); s > 0; s-- {
		b := r.Intn(5)
		out = append(out, warpEvent{block: b, mem: -1})
		for m := r.Intn(3); m > 0; m-- {
			lanes := make([]int64, 1+r.Intn(32))
			for i := range lanes {
				switch b % 3 {
				case 0:
					lanes[i] = 4096 + int64(r.Intn(256))
				case 1:
					lanes[i] = r.Int63n(1 << 40)
				default:
					lanes[i] = 77
				}
			}
			out = append(out, warpEvent{block: b, mem: r.Intn(3), store: b == 4, addrs: lanes})
		}
	}
	return out
}

// refFold folds warps with maps, the way the A-DCFG is defined (§V-B),
// and returns the equivalent canonical graph.
func refFold(kernel string, warps [][]warpEvent) *Graph {
	type histKey struct{ block, visit, mem int }
	type hist struct {
		store  bool
		counts map[uint64]int64
	}
	g := NewGraph(kernel)
	hists := make(map[histKey]*hist)
	for _, w := range warps {
		visits := make(map[int]int)
		prevPrev, prev, prevEdge := Start, Start, EdgeKey{}
		cur := histKey{}
		through := func(b int) EdgeKey {
			ek := EdgeKey{Src: prev, Dst: b}
			g.edge(ek).Count++
			if prev != Start {
				g.Edges[ek].Prev[prevEdge]++
				g.node(prev).Pairs[PairKey{Src: prevPrev, Dst: b}]++
			}
			return ek
		}
		started := false
		for _, ev := range w {
			if ev.mem >= 0 {
				if !started {
					continue
				}
				k := histKey{cur.block, cur.visit, ev.mem}
				h := hists[k]
				if h == nil {
					h = &hist{store: ev.store, counts: make(map[uint64]int64)}
					hists[k] = h
				}
				for _, a := range ev.addrs {
					h.counts[uint64(a)]++
				}
				g.node(cur.block).Visits[cur.visit].hist(ev.mem, isa.SpaceGlobal, h.store)
				continue
			}
			if !started {
				g.Warps++
				started = true
			}
			ek := through(ev.block)
			j := visits[ev.block]
			visits[ev.block]++
			g.node(ev.block).visit(j).Count++
			cur = histKey{block: ev.block, visit: j}
			prevPrev, prev, prevEdge = prev, ev.block, ek
		}
		if started {
			through(End)
		}
	}
	for k, h := range hists {
		m := g.Nodes[k.block].Visits[k.visit].Mems[k.mem]
		for a := range h.counts {
			m.Addrs = append(m.Addrs, a)
		}
		slices.Sort(m.Addrs)
		for _, a := range m.Addrs {
			m.Counts = append(m.Counts, h.counts[a])
		}
	}
	return g
}

// columnarFold folds warps through WarpFolder, retiring them in order.
func columnarFold(kernel string, warps [][]warpEvent, order []int) *Graph {
	g := NewGraph(kernel)
	foldInto(g, warps, order)
	g.Normalize()
	return g
}

func foldInto(g *Graph, warps [][]warpEvent, order []int) {
	f := NewWarpFolder(g, nil)
	for _, wi := range order {
		for _, ev := range warps[wi] {
			if ev.mem < 0 {
				f.EnterBlock(ev.block)
			} else {
				f.MemAccess(ev.mem, isa.SpaceGlobal, ev.store, ev.addrs)
			}
		}
		f.Finish()
	}
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestColumnarFoldMatchesMapOracle(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		warps := make([][]warpEvent, 1+r.Intn(12))
		for i := range warps {
			warps[i] = randomWarp(r)
		}
		// A memory event before any block entry is dropped by both folds.
		warps[0] = append([]warpEvent{{mem: 0, addrs: []int64{1}}}, warps[0]...)
		want := refFold("k", warps).Encode()
		// Recycling every folded graph makes later seeds build from pooled
		// nodes, visits and histograms.
		g := columnarFold("k", warps, identity(len(warps)))
		if !bytes.Equal(g.Encode(), want) {
			t.Fatalf("seed %d: columnar fold differs from the map oracle", seed)
		}
		Recycle(g)
		g = columnarFold("k", warps, r.Perm(len(warps)))
		if !bytes.Equal(g.Encode(), want) {
			t.Fatalf("seed %d: permuted retire order changed the fold", seed)
		}
		Recycle(g)
	}
}

// TestColumnarFoldWideGrid retires 4096 warps in a shuffled order. Each
// also runs a block whose three memory instructions see 32 sparse,
// 32 table-indexed and 32 broadcast lanes, 131072 addresses per
// histogram, so Finish compacts each of them many times along the way
// and must keep the pending buffers within their bound.
func TestColumnarFoldWideGrid(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	warps := make([][]warpEvent, 4096)
	for i := range warps {
		warps[i] = append(randomWarp(r), warpEvent{block: 5, mem: -1})
		for m := 0; m < 3; m++ {
			lanes := make([]int64, 32)
			for l := range lanes {
				lanes[l] = []int64{r.Int63n(1 << 40), 1<<20 + r.Int63n(4096), 9}[m]
			}
			warps[i] = append(warps[i], warpEvent{block: 5, mem: m, addrs: lanes})
		}
	}
	g := NewGraph("wide")
	foldInto(g, warps, r.Perm(len(warps)))
	for _, v := range g.Nodes[5].Visits {
		for mi, h := range v.Mems {
			if bound := rawBound * (h.Len() + rawKeep); len(h.raw) > bound {
				t.Errorf("histogram %d holds %d pending addresses, bound %d", mi, len(h.raw), bound)
			}
		}
	}
	g.Normalize()
	if !bytes.Equal(g.Encode(), refFold("wide", warps).Encode()) {
		t.Fatal("wide-grid columnar fold differs from the map oracle")
	}
}

// TestMergeMatchesSingleFold: merging separately folded halves equals
// folding every warp into one graph, the identity evidence merging uses.
func TestMergeMatchesSingleFold(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		r := rand.New(rand.NewSource(seed))
		warps := make([][]warpEvent, 2+r.Intn(10))
		for i := range warps {
			warps[i] = randomWarp(r)
		}
		cut := 1 + r.Intn(len(warps)-1)
		a := columnarFold("k", warps[:cut], identity(cut))
		b := columnarFold("k", warps[cut:], identity(len(warps)-cut))
		a.Merge(b)
		Recycle(b)
		if !bytes.Equal(a.Encode(), refFold("k", warps).Encode()) {
			t.Fatalf("seed %d: merged halves differ from the single fold", seed)
		}
		Recycle(a)
	}
}
