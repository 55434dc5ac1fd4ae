package adcfg

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"owl/internal/isa"
)

// countOf returns the access count of addr in h (0 when never accessed).
func countOf(h *MemHist, addr uint64) int64 {
	if i, ok := slices.BinarySearch(h.Addrs, addr); ok {
		return h.Counts[i]
	}
	return 0
}

// foldWarp folds a block sequence with optional per-block memory accesses.
func foldWarp(g *Graph, blocks []int, mems map[int][]int64) {
	f := NewWarpFolder(g, nil)
	for _, b := range blocks {
		f.EnterBlock(b)
		if addrs, ok := mems[b]; ok {
			f.MemAccess(0, isa.SpaceGlobal, false, addrs)
		}
	}
	f.Finish()
	g.Normalize()
}

func TestSingleWarpGraph(t *testing.T) {
	g := NewGraph("k")
	foldWarp(g, []int{0, 1, 2}, map[int][]int64{1: {100, 101}})
	if g.Warps != 1 {
		t.Errorf("warps = %d", g.Warps)
	}
	if len(g.Nodes) != 3 {
		t.Errorf("nodes = %d", len(g.Nodes))
	}
	// Edges: start->0, 0->1, 1->2, 2->end.
	if len(g.Edges) != 4 {
		t.Errorf("edges = %d", len(g.Edges))
	}
	if e := g.Edges[EdgeKey{Src: 0, Dst: 1}]; e == nil || e.Count != 1 {
		t.Errorf("edge 0->1 = %+v", e)
	}
	if e := g.Edges[EdgeKey{Src: Start, Dst: 0}]; e == nil {
		t.Error("missing start edge")
	}
	if e := g.Edges[EdgeKey{Src: 2, Dst: End}]; e == nil {
		t.Error("missing end edge")
	}
	h := g.Nodes[1].Visits[0].Mems[0]
	if countOf(h, 100) != 1 || countOf(h, 101) != 1 {
		t.Errorf("histogram = %v", h.Addrs)
	}
}

func TestPairCountsFormTransitionTriples(t *testing.T) {
	g := NewGraph("k")
	foldWarp(g, []int{0, 1, 2}, nil)
	foldWarp(g, []int{0, 1, 3}, nil)
	n := g.Nodes[1]
	if n.Pairs[PairKey{Src: 0, Dst: 2}] != 1 {
		t.Errorf("pair (0,2) = %d", n.Pairs[PairKey{Src: 0, Dst: 2}])
	}
	if n.Pairs[PairKey{Src: 0, Dst: 3}] != 1 {
		t.Errorf("pair (0,3) = %d", n.Pairs[PairKey{Src: 0, Dst: 3}])
	}
	// Entry node's pair has the virtual start as src.
	if g.Nodes[0].Pairs[PairKey{Src: Start, Dst: 1}] != 2 {
		t.Errorf("entry pairs = %v", g.Nodes[0].Pairs)
	}
	// Exit nodes pair with the virtual end.
	if g.Nodes[2].Pairs[PairKey{Src: 1, Dst: End}] != 1 {
		t.Errorf("node 2 pairs = %v", g.Nodes[2].Pairs)
	}
}

func TestVisitIndexingPerWarp(t *testing.T) {
	// A loop visits block 1 three times in one warp: visits index per warp
	// occurrence, each with its own histogram (m_j in §V-B).
	g := NewGraph("k")
	f := NewWarpFolder(g, nil)
	f.EnterBlock(0)
	for i := 0; i < 3; i++ {
		f.EnterBlock(1)
		f.MemAccess(0, isa.SpaceGlobal, false, []int64{int64(10 + i)})
	}
	f.Finish()
	g.Normalize()
	n := g.Nodes[1]
	if len(n.Visits) != 3 {
		t.Fatalf("visits = %d", len(n.Visits))
	}
	for j := 0; j < 3; j++ {
		h := n.Visits[j].Mems[0]
		if countOf(h, uint64(10+j)) != 1 || h.Len() != 1 {
			t.Errorf("visit %d histogram = %v", j, h.Addrs)
		}
	}
	// A second warp's first visit merges into visit index 0.
	foldWarp(g, []int{0, 1}, map[int][]int64{1: {10}})
	if n.Visits[0].Count != 2 || countOf(n.Visits[0].Mems[0], 10) != 2 {
		t.Errorf("merged visit 0 = %+v", n.Visits[0])
	}
}

func TestPrevEdgeAttribution(t *testing.T) {
	g := NewGraph("k")
	foldWarp(g, []int{0, 1, 2}, nil)
	e := g.Edges[EdgeKey{Src: 1, Dst: 2}]
	if e.Prev[EdgeKey{Src: 0, Dst: 1}] != 1 {
		t.Errorf("prev edges = %v", e.Prev)
	}
}

func TestMergeAggregates(t *testing.T) {
	a := NewGraph("k")
	foldWarp(a, []int{0, 1}, map[int][]int64{1: {5}})
	b := NewGraph("k")
	foldWarp(b, []int{0, 1}, map[int][]int64{1: {5, 6}})
	a.Merge(b)
	if a.Warps != 2 {
		t.Errorf("warps = %d", a.Warps)
	}
	h := a.Nodes[1].Visits[0].Mems[0]
	if countOf(h, 5) != 2 || countOf(h, 6) != 1 {
		t.Errorf("merged histogram = %v", h.Addrs)
	}
	if a.Edges[EdgeKey{Src: 0, Dst: 1}].Count != 2 {
		t.Error("edge counts did not add")
	}
}

func TestMergeIsOrderIndependent(t *testing.T) {
	// Warp aggregation must commute so parallel block execution is
	// deterministic.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mkWarp := func() ([]int, map[int][]int64) {
			n := 2 + r.Intn(5)
			blocks := make([]int, n)
			for i := range blocks {
				blocks[i] = r.Intn(4)
			}
			mems := map[int][]int64{blocks[0]: {int64(r.Intn(10))}}
			return blocks, mems
		}
		w1b, w1m := mkWarp()
		w2b, w2m := mkWarp()
		g1 := NewGraph("k")
		foldWarp(g1, w1b, w1m)
		foldWarp(g1, w2b, w2m)
		g2 := NewGraph("k")
		foldWarp(g2, w2b, w2m)
		foldWarp(g2, w1b, w1m)
		return g1.Equal(g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHashDistinguishesContent(t *testing.T) {
	base := func() *Graph {
		g := NewGraph("k")
		foldWarp(g, []int{0, 1}, map[int][]int64{1: {5}})
		return g
	}
	a := base()
	if !a.Equal(base()) {
		t.Error("identical graphs hash differently")
	}
	b := base()
	foldWarp(b, []int{0, 1}, nil)
	if a.Equal(b) {
		t.Error("extra warp not reflected in hash")
	}
	c := NewGraph("k")
	foldWarp(c, []int{0, 1}, map[int][]int64{1: {6}})
	if a.Equal(c) {
		t.Error("different address not reflected in hash")
	}
	d := NewGraph("other")
	foldWarp(d, []int{0, 1}, map[int][]int64{1: {5}})
	if a.Equal(d) {
		t.Error("kernel name not reflected in hash")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := NewGraph("k")
	foldWarp(g, []int{0, 1}, map[int][]int64{1: {5}})
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone differs")
	}
	foldWarp(c, []int{0, 2}, nil)
	if g.Equal(c) {
		t.Error("mutating the clone changed the original hash")
	}
	if _, ok := g.Nodes[2]; ok {
		t.Error("clone shares node map")
	}
}

func TestRebaseFunction(t *testing.T) {
	g := NewGraph("k")
	rebase := func(space isa.Space, addr int64) uint64 {
		if space == isa.SpaceGlobal {
			return uint64(addr - 1000)
		}
		return uint64(addr)
	}
	f := NewWarpFolder(g, rebase)
	f.EnterBlock(0)
	f.MemAccess(0, isa.SpaceGlobal, false, []int64{1005})
	f.MemAccess(1, isa.SpaceShared, true, []int64{7})
	f.Finish()
	g.Normalize()
	v := g.Nodes[0].Visits[0]
	if countOf(v.Mems[0], 5) != 1 {
		t.Errorf("global not rebased: %v", v.Mems[0].Addrs)
	}
	if countOf(v.Mems[1], 7) != 1 || !v.Mems[1].Store {
		t.Errorf("shared histogram = %+v", v.Mems[1])
	}
}

func TestTotalAndSize(t *testing.T) {
	g := NewGraph("k")
	foldWarp(g, []int{0}, map[int][]int64{0: {1, 1, 2}})
	n := g.Nodes[0]
	if n.Visits[0].Mems[0].Total() != 3 {
		t.Errorf("total = %d", n.Visits[0].Mems[0].Total())
	}
	if n.TotalVisits() != 1 {
		t.Errorf("total visits = %d", n.TotalVisits())
	}
	if g.SizeBytes() <= 0 {
		t.Error("empty encoding")
	}
	small := g.SizeBytes()
	foldWarp(g, []int{0, 1, 2, 3}, map[int][]int64{2: {9, 10, 11}})
	if g.SizeBytes() <= small {
		t.Error("encoding did not grow with content")
	}
}

func TestMemAccessBeforeEnterIgnored(t *testing.T) {
	g := NewGraph("k")
	f := NewWarpFolder(g, nil)
	f.MemAccess(0, isa.SpaceGlobal, false, []int64{1}) // no current block
	f.Finish()                                         // nothing started
	if g.Warps != 0 || len(g.Nodes) != 0 {
		t.Errorf("stray events recorded: %v", g)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	g := NewGraph("k")
	for i := 0; i < 10; i++ {
		foldWarp(g, []int{0, i % 3, 2}, map[int][]int64{2: {int64(i % 4)}})
	}
	e1 := g.Encode()
	e2 := g.Encode()
	if string(e1) != string(e2) {
		t.Error("encoding not deterministic")
	}
}

// TestMergeIntoNilMaps merges into a graph with nil maps (the shape gob
// and JSON decoding produce for empty pair and prev-edge sets) and checks
// the merge fills them instead of panicking.
func TestMergeIntoNilMaps(t *testing.T) {
	g := &Graph{
		Kernel: "decoded",
		Nodes: map[int]*Node{
			1: {Block: 1, Visits: []*Visit{{Count: 2, Mems: []*MemHist{nil, {Space: isa.SpaceGlobal}}}}},
		},
		Edges: map[EdgeKey]*Edge{{Src: 1, Dst: 2}: {Count: 1}},
	}
	o := NewGraph("decoded")
	foldWarp(o, []int{1, 2}, map[int][]int64{1: {4}})
	o.Nodes[1].Visits[0].Mems = []*MemHist{nil, o.Nodes[1].Visits[0].Mems[0]}
	g.Merge(o)
	if g.Nodes[1].Pairs[PairKey{Src: Start, Dst: 2}] != 1 {
		t.Errorf("pairs = %v", g.Nodes[1].Pairs)
	}
	if g.Edges[EdgeKey{Src: 1, Dst: 2}].Prev[EdgeKey{Src: Start, Dst: 1}] != 1 {
		t.Errorf("prev edges = %v", g.Edges[EdgeKey{Src: 1, Dst: 2}].Prev)
	}
	if h := g.Nodes[1].Visits[0].Mems[1]; countOf(h, 4) != 1 {
		t.Errorf("histogram = %v / %v", h.Addrs, h.Counts)
	}
}
