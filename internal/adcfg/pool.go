package adcfg

import (
	"slices"
	"sync"
)

// Buffer pools for the A-DCFG building blocks. Every traced run builds
// one graph per kernel invocation, and the streaming evidence pipeline
// drops each trace as soon as it merges. Recycling the graphs — nodes,
// visits, histograms with their column capacity, edges, and their maps —
// through these pools keeps the allocation rate of recording close to
// zero in the steady state. Without them a detection allocates twice the
// bytes per run, and the live heap a concurrent collection reports grows
// with that rate.
var (
	graphPool = sync.Pool{New: func() any {
		return &Graph{Nodes: make(map[int]*Node), Edges: make(map[EdgeKey]*Edge)}
	}}
	nodePool = sync.Pool{New: func() any {
		return &Node{Pairs: make(map[PairKey]int64)}
	}}
	visitPool = sync.Pool{New: func() any { return &Visit{} }}
	edgePool  = sync.Pool{New: func() any {
		return &Edge{Prev: make(map[EdgeKey]int64)}
	}}
	histPool = sync.Pool{New: func() any { return &MemHist{} }}
)

func newNode(block int) *Node {
	n := nodePool.Get().(*Node)
	n.Block = block
	return n
}

// Recycle returns g and every node, visit, histogram, and edge it owns to
// the pools. The caller must hold the only live reference: g and its
// sub-objects must not be used afterwards. Recycle(nil) is a no-op.
func Recycle(g *Graph) {
	if g == nil {
		return
	}
	for _, n := range g.Nodes {
		for _, v := range n.Visits {
			for _, h := range v.Mems {
				recycleHist(h)
			}
			clear(v.Mems)
			v.Mems = v.Mems[:0]
			v.Count = 0
			visitPool.Put(v)
		}
		clear(n.Visits)
		n.Visits = n.Visits[:0]
		if n.Pairs == nil {
			n.Pairs = make(map[PairKey]int64)
		} else {
			clear(n.Pairs)
		}
		n.Block = 0
		nodePool.Put(n)
	}
	for _, e := range g.Edges {
		if e.Prev == nil {
			e.Prev = make(map[EdgeKey]int64)
		} else {
			clear(e.Prev)
		}
		e.Count = 0
		edgePool.Put(e)
	}
	if g.Nodes == nil {
		g.Nodes = make(map[int]*Node)
	} else {
		clear(g.Nodes)
	}
	if g.Edges == nil {
		g.Edges = make(map[EdgeKey]*Edge)
	} else {
		clear(g.Edges)
	}
	g.Kernel = ""
	g.Warps = 0
	graphPool.Put(g)
}

// recycleHist pools h. Its address column becomes the next recording's
// lane-address buffer and its count column is refilled by compact.
func recycleHist(h *MemHist) {
	if h == nil {
		return
	}
	if h.win != nil {
		putWindow(h.win)
	}
	*h = MemHist{Counts: h.Counts[:0], raw: h.Addrs[:0]}
	histPool.Put(h)
}

// getWindow takes a histogram from the pool for use as a merge window:
// its Counts column becomes n zeroed slots, reusing recycled capacity.
func getWindow(n int) *MemHist {
	w := histPool.Get().(*MemHist)
	w.Counts = slices.Grow(w.Counts[:0], n)[:n]
	clear(w.Counts)
	return w
}

// putWindow returns a merge window to the pool. Its Counts capacity
// serves the next recording's count column or the next window.
func putWindow(w *MemHist) {
	w.Counts = w.Counts[:0]
	histPool.Put(w)
}
