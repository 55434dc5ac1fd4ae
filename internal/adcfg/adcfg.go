// Package adcfg implements the Attributed Dynamic Control Flow Graph of
// §V-B: one graph per kernel invocation, with nodes for executed basic
// blocks (attributed with per-visit, per-instruction memory-access
// histograms) and edges for observed block transitions (attributed with
// traversal counts and previous-edge counts). Warp traces fold into the
// graph incrementally, eliminating cross-thread redundancy — the property
// that gives Owl its scalability (RQ2).
package adcfg

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"owl/internal/isa"
)

// Virtual block IDs for the start and end of a warp's trace. A graph may
// have multiple entry and exit nodes (§V-B), so these synthetic endpoints
// carry the per-warp boundary transitions.
const (
	Start = -1
	End   = -2
)

// PairKey is a (src, dst) control-flow pair through a node: the node was
// entered from Src and left towards Dst. Counting pairs constructs a
// feasible control-flow transition matrix (Eq. 7).
type PairKey struct {
	Src, Dst int
}

// EdgeKey identifies a directed transition between two blocks.
type EdgeKey struct {
	Src, Dst int
}

// MemHist is the access histogram of one memory instruction during one
// visit, aggregated over warps and lanes. It is columnar: Addrs holds the
// distinct rebased addresses in ascending order and Counts[i] > 0 is the
// number of accesses to Addrs[i]. Every reader walks the two slices in
// address order; trace.Validate enforces the invariant on decoded input.
type MemHist struct {
	Space  isa.Space
	Store  bool
	Addrs  []uint64
	Counts []int64

	// raw buffers the lane addresses appended by retiring warps until
	// Graph.Normalize sorts and run-length-compacts them into Addrs and
	// Counts.
	raw []uint64

	// win is the pending merge window of a narrow histogram that
	// Graph.Accumulate counts into: a pooled histogram whose Counts
	// column counts address winBase+i at slot i. While it is set, Addrs
	// and Counts are empty and the package's readers panic (canonical);
	// Graph.Flush folds it back into them.
	win     *MemHist
	winBase uint64
}

// denseSpan selects counting over sorting in sortRuns: a buffer whose
// addresses span at most denseSpan slots per address — typically a warp's
// lanes indexing one lookup table — is counted into dense scratch.
const denseSpan = 16

// runScratch is sortRuns' dense scratch: a count and an occupancy bit per
// address slot. It is all zero between calls.
type runScratch struct {
	counts []uint32
	occ    []uint64
}

// rawKeep is the lane-address buffer size (two warps' worth) a histogram
// keeps as its address column however few distinct addresses it holds.
const rawKeep = 64

// rawBound caps a histogram's pending lane addresses at rawBound times
// its distinct addresses plus rawKeep; past it, Finish compacts them into
// the sorted runs. Recording memory then follows the address set, as a
// map's would, not grid width times accesses.
const rawBound = 4

// Len returns the number of distinct addresses.
func (h *MemHist) Len() int {
	h.canonical()
	return len(h.Addrs)
}

// Total returns the total access count in the histogram.
func (h *MemHist) Total() int64 {
	h.canonical()
	var n int64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// compact folds the pending addresses into the histogram's sorted runs,
// using s as sortRuns' scratch. Folding a multiset is commutative, so
// when and how often it runs does not change the result. Later
// compactions keep the buffer for the next warps; Normalize drops it.
func (h *MemHist) compact(s *runScratch) {
	raw := h.raw
	if len(raw) == 0 {
		return
	}
	if len(h.Addrs) > 0 { // compacted before: merge the new runs in
		n, counts := sortRuns(raw, s, nil)
		h.merge(&MemHist{Addrs: raw[:n], Counts: counts})
		h.raw = raw[:0]
		return
	}
	// The sorted buffer becomes the address column unless it is large and
	// mostly repeats, which would pin a big array for a few addresses.
	h.raw = nil
	n, counts := sortRuns(raw, s, h.Counts)
	if cap(raw) > rawKeep && 2*n < cap(raw) {
		raw = slices.Clone(raw[:n])
	}
	h.Addrs, h.Counts = raw[:n], counts
}

// sortRuns sorts raw in place and folds each run of equal addresses into
// one entry: raw[:n] then holds the n distinct addresses in ascending
// order and counts, which reuses the storage of dst, their multiplicities.
// Narrow buffers (see denseSpan) are counted into s and read back in
// occupancy-bit order instead of being compared.
func sortRuns(raw []uint64, s *runScratch, dst []int64) (n int, counts []int64) {
	lo, hi := raw[0], raw[0]
	for _, a := range raw[1:] {
		lo, hi = min(lo, a), max(hi, a)
	}
	if span := hi - lo; span < uint64(denseSpan*len(raw)) {
		words := int(span>>6) + 1
		if len(s.occ) < words {
			s.counts, s.occ = make([]uint32, words<<6), make([]uint64, words)
		}
		for _, a := range raw {
			off := a - lo
			s.counts[off]++
			s.occ[off>>6] |= 1 << (off & 63)
		}
		occ := s.occ[:words]
		for _, w := range occ {
			n += bits.OnesCount64(w)
		}
		counts = slices.Grow(dst[:0], n)
		for i, w := range occ {
			for ; w != 0; w &= w - 1 {
				off := i<<6 | bits.TrailingZeros64(w)
				raw[len(counts)] = lo + uint64(off)
				counts = append(counts, int64(s.counts[off]))
				s.counts[off] = 0
			}
			occ[i] = 0
		}
		return n, counts
	}
	slices.Sort(raw)
	n = 1
	for i := 1; i < len(raw); i++ {
		if raw[i] != raw[i-1] {
			n++
		}
	}
	counts = slices.Grow(dst[:0], n)
	for i, a := range raw {
		if i > 0 && a == raw[len(counts)-1] {
			counts[len(counts)-1]++
			continue
		}
		raw[len(counts)] = a
		counts = append(counts, 1)
	}
	return n, counts
}

// merge folds o into h: a linear merge of two sorted runs. Counts of
// addresses h already holds add in place, so the steady state of evidence
// merging — every address seen before — allocates nothing; new addresses
// are merged in from the back after one growth.
func (h *MemHist) merge(o *MemHist) {
	extra, i := 0, 0
	for j, a := range o.Addrs {
		for i < len(h.Addrs) && h.Addrs[i] < a {
			i++
		}
		if i < len(h.Addrs) && h.Addrs[i] == a {
			h.Counts[i] += o.Counts[j]
		} else {
			extra++
		}
	}
	if extra == 0 {
		return
	}
	n := len(h.Addrs)
	h.Addrs = slices.Grow(h.Addrs, extra)[:n+extra]
	h.Counts = slices.Grow(h.Counts, extra)[:n+extra]
	i, j := n-1, len(o.Addrs)-1
	for k := n + extra - 1; k > i; {
		switch {
		case i >= 0 && h.Addrs[i] == o.Addrs[j]: // counted above
			j--
		case i >= 0 && h.Addrs[i] > o.Addrs[j]:
			h.Addrs[k], h.Counts[k] = h.Addrs[i], h.Counts[i]
			i--
			k--
		default:
			h.Addrs[k], h.Counts[k] = o.Addrs[j], o.Counts[j]
			j--
			k--
		}
	}
}

// accumulate folds o into h as merge does, but a narrow histogram (see
// denseSpan) counts o into its merge window in place, so the add costs
// o's addresses rather than h's. The window widens when o falls outside
// it and the widened window is still narrow; otherwise h goes back to
// the sorted-run merge. h stays pending until flush.
func (h *MemHist) accumulate(o *MemHist) {
	// Merged histograms never buffer lane addresses: drop the buffer a
	// pooled histogram brings along rather than keep it alive unused.
	h.raw = nil
	if len(o.Addrs) == 0 {
		return
	}
	if h.win != nil {
		if h.cover(o) {
			w, base := h.win.Counts, h.winBase
			for j, a := range o.Addrs {
				w[a-base] += o.Counts[j]
			}
			return
		}
		h.flush()
	}
	if len(h.Addrs) == 0 { // open the window straight from o
		if !h.open(o) {
			h.merge(o)
		}
		return
	}
	h.merge(o)
	if h.open(h) {
		h.Addrs, h.Counts = h.Addrs[:0], h.Counts[:0]
	}
}

// open gives h a merge window from the pool holding src's sorted runs,
// if they are narrow, and reports whether it did. The window's length,
// span+1, is at most denseSpan slots per address.
func (h *MemHist) open(src *MemHist) bool {
	n := len(src.Addrs)
	lo, hi := src.Addrs[0], src.Addrs[n-1]
	if hi-lo >= uint64(denseSpan*n) {
		return false
	}
	w := getWindow(int(hi-lo) + 1)
	for i, a := range src.Addrs {
		w.Counts[a-lo] = src.Counts[i]
	}
	h.win, h.winBase = w, lo
	return true
}

// cover reports whether h's window covers o's address range, widening
// it first when the widened window keeps fewer than denseSpan slots per
// distinct address of h and o together.
func (h *MemHist) cover(o *MemHist) bool {
	w, base := h.win.Counts, h.winBase
	lo, hi := o.Addrs[0], o.Addrs[len(o.Addrs)-1]
	if lo >= base && hi-base < uint64(len(w)) {
		return true
	}
	n := occupied(w)
	for _, a := range o.Addrs {
		if a < base || a-base >= uint64(len(w)) || w[a-base] == 0 {
			n++
		}
	}
	lo, hi = min(lo, base), max(hi, base+uint64(len(w))-1)
	if hi-lo >= uint64(denseSpan*n) {
		return false
	}
	nw := getWindow(int(hi-lo) + 1)
	copy(nw.Counts[base-lo:], w)
	putWindow(h.win)
	h.win, h.winBase = nw, lo
	return true
}

// canonical panics if h has a merge window pending: its Addrs and Counts
// stay empty until Graph.Flush folds the window back into them.
func (h *MemHist) canonical() {
	if h.win != nil {
		panic("adcfg: histogram read with a merge window pending (Graph.Flush first)")
	}
}

// flush folds h's merge window, if any, back into the sorted columns and
// returns it to the pool.
func (h *MemHist) flush() {
	if h.win == nil {
		return
	}
	w, base := h.win.Counts, h.winBase
	n := occupied(w)
	h.Addrs, h.Counts = slices.Grow(h.Addrs[:0], n), slices.Grow(h.Counts[:0], n)
	for i, c := range w {
		if c != 0 {
			h.Addrs = append(h.Addrs, base+uint64(i))
			h.Counts = append(h.Counts, c)
		}
	}
	putWindow(h.win)
	h.win = nil
}

// occupied returns the number of nonzero slots of a merge window.
func occupied(w []int64) int {
	n := 0
	for _, c := range w {
		if c != 0 {
			n++
		}
	}
	return n
}

// Visit aggregates the j-th visit of a basic block across all warps: how
// many warps made a j-th visit and what each memory instruction accessed
// during it (m_j in §V-B).
type Visit struct {
	Count int64
	Mems  []*MemHist
}

// hist returns the histogram of memory instruction mi, creating it (and
// any lower nil slots) on first use.
func (v *Visit) hist(mi int, space isa.Space, store bool) *MemHist {
	for len(v.Mems) <= mi {
		v.Mems = append(v.Mems, nil)
	}
	h := v.Mems[mi]
	if h == nil {
		h = histPool.Get().(*MemHist)
		h.Space, h.Store = space, store
		v.Mems[mi] = h
	}
	return h
}

// Node is one executed basic block with its attributes.
type Node struct {
	Block  int
	Visits []*Visit
	// Pairs counts (entered-from, left-towards) combinations, the raw
	// material of the control-flow transition matrix (§VII-C).
	Pairs map[PairKey]int64
}

// visit returns the j-th visit, creating it and any earlier ones.
func (n *Node) visit(j int) *Visit {
	for len(n.Visits) <= j {
		n.Visits = append(n.Visits, visitPool.Get().(*Visit))
	}
	return n.Visits[j]
}

// TotalVisits returns the number of times any warp entered the block.
func (n *Node) TotalVisits() int64 {
	var t int64
	for _, v := range n.Visits {
		t += v.Count
	}
	return t
}

// Edge is one observed transition with its traversal count and the counts
// of the edges that preceded it (§V-B).
type Edge struct {
	Count int64
	Prev  map[EdgeKey]int64
}

// Graph is the A-DCFG of one kernel invocation (or of merged evidence).
type Graph struct {
	Kernel string
	Nodes  map[int]*Node
	Edges  map[EdgeKey]*Edge
	Warps  int64 // number of warp traces folded in
}

// NewGraph returns an empty graph for the named kernel, reusing a
// recycled graph when one is pooled (see Recycle).
func NewGraph(kernel string) *Graph {
	g := graphPool.Get().(*Graph)
	g.Kernel = kernel
	return g
}

func (g *Graph) node(block int) *Node {
	n := g.Nodes[block]
	if n == nil {
		n = newNode(block)
		g.Nodes[block] = n
	} else if n.Pairs == nil { // decoded graphs may omit empty maps
		n.Pairs = make(map[PairKey]int64)
	}
	return n
}

func (g *Graph) edge(k EdgeKey) *Edge {
	e := g.Edges[k]
	if e == nil {
		e = edgePool.Get().(*Edge)
		g.Edges[k] = e
	} else if e.Prev == nil {
		e.Prev = make(map[EdgeKey]int64)
	}
	return e
}

// Normalize compacts the lane addresses still pending in each histogram
// (see compact), establishing the sorted-run invariant every reader
// relies on, and drops the buffers. The tracer
// calls it once per invocation, after the last warp retired, when it
// hands the trace out; it is idempotent.
func (g *Graph) Normalize() {
	var dense runScratch
	for _, n := range g.Nodes {
		for _, v := range n.Visits {
			for _, h := range v.Mems {
				if h != nil {
					h.compact(&dense)
					h.raw = nil
				}
			}
		}
	}
}

// WarpFolder folds one warp's trace into a graph. It buffers the warp's
// own state only — per-block visit indices, the block path, and the
// rebased lane addresses of each memory event (at most one warp width per
// event) — and folds all of it into the graph in Finish, so a traced
// launch touches the shared graph once per warp.
type WarpFolder struct {
	g      *Graph
	rebase func(space isa.Space, addr int64) uint64
	visits []int32    // visits[b]: entries of block b so far in this warp
	steps  []step     // entered blocks, in order
	mems   []memEvent // memory events, in order
	addrs  []uint64   // rebased lane addresses of every event, concatenated
	dense  runScratch // for histograms Finish compacts
}

// step is one block entry: the block and its per-warp visit index.
type step struct{ block, visit int32 }

// memEvent is one memory instruction issued during steps[step]; its lane
// addresses end at addrs[end].
type memEvent struct {
	step, mem, end int32
	space          isa.Space
	store          bool
}

// NewWarpFolder creates a folder targeting g. rebase converts raw device
// addresses to stable offsets (allocation-relative for global memory); a
// nil rebase keeps raw addresses.
func NewWarpFolder(g *Graph, rebase func(space isa.Space, addr int64) uint64) *WarpFolder {
	f := &WarpFolder{}
	f.Reset(g, rebase)
	return f
}

// Reset retargets the folder at a new warp of g, keeping its buffers.
func (f *WarpFolder) Reset(g *Graph, rebase func(space isa.Space, addr int64) uint64) {
	if rebase == nil {
		rebase = func(_ isa.Space, addr int64) uint64 { return uint64(addr) }
	}
	f.g, f.rebase = g, rebase
	clear(f.visits)
	f.steps, f.mems, f.addrs = f.steps[:0], f.mems[:0], f.addrs[:0]
}

// EnterBlock records that the warp entered block b.
func (f *WarpFolder) EnterBlock(b int) {
	for len(f.visits) <= b {
		f.visits = append(f.visits, 0)
	}
	f.steps = append(f.steps, step{block: int32(b), visit: f.visits[b]})
	f.visits[b]++
}

// MemAccess records one memory instruction's lane addresses in the current
// block visit. memIdx is the instruction's index among the block's memory
// instructions. addrs is not retained.
func (f *WarpFolder) MemAccess(memIdx int, space isa.Space, store bool, addrs []int64) {
	if len(f.steps) == 0 {
		return
	}
	for _, a := range addrs {
		f.addrs = append(f.addrs, f.rebase(space, a))
	}
	f.mems = append(f.mems, memEvent{
		step: int32(len(f.steps) - 1), mem: int32(memIdx), end: int32(len(f.addrs)),
		space: space, store: store,
	})
}

// Finish folds the warp into the graph: edge, previous-edge, pair and
// visit counts along the block path (closed by its End transition), and
// each event's lane addresses appended to its histogram, which compacts
// once they pass its bound (see rawBound). The caller serializes Finish
// calls on one graph. The folder then records the next warp of the same
// graph, or Reset retargets it.
func (f *WarpFolder) Finish() {
	if len(f.steps) == 0 {
		return
	}
	g := f.g
	g.Warps++
	prevPrev, prev := Start, Start
	var prevEdge EdgeKey
	var prevNode *Node
	mems, lo := f.mems, int32(0)
	through := func(b int) EdgeKey {
		ek := EdgeKey{Src: prev, Dst: b}
		e := g.edge(ek)
		e.Count++
		if prevNode != nil {
			e.Prev[prevEdge]++
			// Completing the triple (prevPrev, prev, b) attributes the
			// pair to the middle node.
			prevNode.Pairs[PairKey{Src: prevPrev, Dst: b}]++
		}
		return ek
	}
	for i, s := range f.steps {
		b := int(s.block)
		ek := through(b)
		n := g.node(b)
		v := n.visit(int(s.visit))
		v.Count++
		for len(mems) > 0 && int(mems[0].step) == i {
			m := mems[0]
			h := v.hist(int(m.mem), m.space, m.store)
			h.raw = append(h.raw, f.addrs[lo:m.end]...)
			if len(h.raw) > rawBound*(len(h.Addrs)+rawKeep) {
				h.compact(&f.dense)
			}
			mems, lo = mems[1:], m.end
		}
		prevPrev, prev, prevEdge, prevNode = prev, b, ek, n
	}
	through(End)
	f.Reset(g, f.rebase)
}

// Merge folds o into g: node visits align by visit index, histograms and
// counts add (the same aggregation used for warps in the recording phase,
// reused for evidence merging in §VII-A). o must be normalized.
func (g *Graph) Merge(o *Graph) { g.merge(o, false) }

// Accumulate is Merge for a graph that absorbs many merges before anyone
// reads it, as evidence does: a narrow histogram (span under denseSpan
// slots per distinct address) counts merged runs in a dense window from
// the histogram pool, so a merge costs the addresses merged in rather
// than all the addresses held. Until Flush, g's histograms are not
// canonical: readers of Addrs and Counts must wait for it, and Encode
// (so Hash, Equal, SizeBytes), MarshalJSON, Clone, a Merge from g, Len
// and Total panic on a pending window.
func (g *Graph) Accumulate(o *Graph) { g.merge(o, true) }

// Flush folds every pending merge window of g back into its histogram's
// sorted columns and returns the windows to the pool. It is idempotent,
// and Accumulate may follow.
func (g *Graph) Flush() {
	for _, n := range g.Nodes {
		for _, v := range n.Visits {
			for _, h := range v.Mems {
				if h != nil {
					h.flush()
				}
			}
		}
	}
}

func (g *Graph) merge(o *Graph, windowed bool) {
	g.Warps += o.Warps
	for id, on := range o.Nodes {
		n := g.node(id)
		for j, ov := range on.Visits {
			v := n.visit(j)
			v.Count += ov.Count
			for mi, oh := range ov.Mems {
				if oh == nil {
					continue
				}
				oh.canonical()
				h := v.hist(mi, oh.Space, oh.Store)
				if windowed {
					h.accumulate(oh)
				} else {
					h.flush()
					h.merge(oh)
				}
			}
		}
		for pk, c := range on.Pairs {
			n.Pairs[pk] += c
		}
	}
	for ek, oe := range o.Edges {
		e := g.edge(ek)
		e.Count += oe.Count
		for pk, c := range oe.Prev {
			e.Prev[pk] += c
		}
	}
}

// Clone deep-copies the graph.
func (g *Graph) Clone() *Graph {
	c := NewGraph(g.Kernel)
	c.Merge(g)
	c.Warps = g.Warps
	return c
}

// Encode writes a canonical binary form of the graph: deterministic field
// order with sorted keys. It backs both Hash (trace-equality classing,
// §VI) and trace-size accounting (Fig. 5, Table IV).
func (g *Graph) Encode() []byte {
	var buf []byte
	put := func(v int64) {
		var tmp [binary.MaxVarintLen64]byte
		n := binary.PutVarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	putU := func(v uint64) {
		var tmp [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	buf = append(buf, g.Kernel...)
	buf = append(buf, 0)
	put(g.Warps)

	nodeIDs := make([]int, 0, len(g.Nodes))
	for id := range g.Nodes {
		nodeIDs = append(nodeIDs, id)
	}
	sort.Ints(nodeIDs)
	put(int64(len(nodeIDs)))
	for _, id := range nodeIDs {
		n := g.Nodes[id]
		put(int64(id))
		put(int64(len(n.Visits)))
		for _, v := range n.Visits {
			put(v.Count)
			put(int64(len(v.Mems)))
			for _, h := range v.Mems {
				if h == nil {
					put(-1)
					continue
				}
				h.canonical()
				put(int64(h.Space))
				if h.Store {
					put(1)
				} else {
					put(0)
				}
				put(int64(len(h.Addrs)))
				for i, a := range h.Addrs {
					putU(a)
					put(h.Counts[i])
				}
			}
		}
		pairs := make([]PairKey, 0, len(n.Pairs))
		for pk := range n.Pairs {
			pairs = append(pairs, pk)
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i].Src != pairs[j].Src {
				return pairs[i].Src < pairs[j].Src
			}
			return pairs[i].Dst < pairs[j].Dst
		})
		put(int64(len(pairs)))
		for _, pk := range pairs {
			put(int64(pk.Src))
			put(int64(pk.Dst))
			put(n.Pairs[pk])
		}
	}

	edgeKeys := make([]EdgeKey, 0, len(g.Edges))
	for ek := range g.Edges {
		edgeKeys = append(edgeKeys, ek)
	}
	sort.Slice(edgeKeys, func(i, j int) bool {
		if edgeKeys[i].Src != edgeKeys[j].Src {
			return edgeKeys[i].Src < edgeKeys[j].Src
		}
		return edgeKeys[i].Dst < edgeKeys[j].Dst
	})
	put(int64(len(edgeKeys)))
	for _, ek := range edgeKeys {
		e := g.Edges[ek]
		put(int64(ek.Src))
		put(int64(ek.Dst))
		put(e.Count)
		prevs := make([]EdgeKey, 0, len(e.Prev))
		for pk := range e.Prev {
			prevs = append(prevs, pk)
		}
		sort.Slice(prevs, func(i, j int) bool {
			if prevs[i].Src != prevs[j].Src {
				return prevs[i].Src < prevs[j].Src
			}
			return prevs[i].Dst < prevs[j].Dst
		})
		put(int64(len(prevs)))
		for _, pk := range prevs {
			put(int64(pk.Src))
			put(int64(pk.Dst))
			put(e.Prev[pk])
		}
	}
	return buf
}

// Hash returns the canonical SHA-256 of the graph.
func (g *Graph) Hash() [32]byte { return sha256.Sum256(g.Encode()) }

// SizeBytes returns the canonical encoded size, the trace-size metric of
// Fig. 5 and Table IV.
func (g *Graph) SizeBytes() int { return len(g.Encode()) }

// Equal reports canonical equality of two graphs.
func (g *Graph) Equal(o *Graph) bool { return g.Hash() == o.Hash() }

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("adcfg(%s: %d nodes, %d edges, %d warps)",
		g.Kernel, len(g.Nodes), len(g.Edges), g.Warps)
}
