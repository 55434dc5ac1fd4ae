// Package tracer is the simulated counterpart of the paper's Pin+NVBit
// pair (§V-C). As a cuda.Observer it captures allocation records and
// launch call stacks on the host; as a gpu.Instrument it attaches per-warp
// hooks that fold basic-block entries and memory accesses into one A-DCFG
// per kernel invocation, rebasing global addresses to allocation-relative
// offsets so that memory-layout changes (ASLR) do not fabricate trace
// differences.
package tracer

import (
	"sort"
	"sync"

	"owl/internal/adcfg"
	"owl/internal/cuda"
	"owl/internal/gpu"
	"owl/internal/isa"
	"owl/internal/microarch"
	"owl/internal/simt"
	"owl/internal/trace"
)

// Option configures a Tracer.
type Option func(*Tracer)

// WithoutRebase disables allocation-relative address rebasing. Under ASLR
// this reintroduces layout noise — the ablation of §5 in DESIGN.md.
func WithoutRebase() Option {
	return func(t *Tracer) { t.rebase = false }
}

// WithCost enables the microarchitectural cost channel: per-warp
// bank-conflict, coalescing, and power-proxy observables are aggregated
// per (block, instruction) site into each Invocation's Cost records,
// which then join the trace's canonical encoding. Collection rides the
// interpreter's already-hooked slow path; the untraced fast path is
// unaffected, and traced runs without this option pay only a nil check
// per retained uop.
func WithCost() Option {
	return func(t *Tracer) { t.cost = true }
}

// Tracer records one program execution into a ProgramTrace.
type Tracer struct {
	mu     sync.Mutex
	rebase bool
	cost   bool
	allocs []gpu.AllocRecord // sorted by Base
	result *trace.ProgramTrace
}

// folders recycles warp folders, whose block-path and lane-address
// buffers are the per-warp scratch of every traced run.
var folders = sync.Pool{New: func() any { return new(adcfg.WarpFolder) }}

var _ cuda.Observer = (*Tracer)(nil)

// New creates a tracer for one execution of the named program.
func New(program string, opts ...Option) *Tracer {
	t := &Tracer{
		rebase: true,
		result: &trace.ProgramTrace{Program: program},
	}
	for _, o := range opts {
		o(t)
	}
	return t
}

// Trace returns the recorded program trace, first sorting and compacting
// the lane addresses still pending in each invocation's histograms (see
// adcfg.Graph.Normalize). Call it once the run has finished. Sorting
// buffered addresses in bulk rather than merging warp by warp keeps wide
// grids at O(n log n) and makes the result independent of warp retire
// order, so parallel block execution stays deterministic.
func (t *Tracer) Trace() *trace.ProgramTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, inv := range t.result.Invocations {
		inv.Graph.Normalize()
	}
	return t.result
}

// OnAlloc implements cuda.Observer.
func (t *Tracer) OnAlloc(rec gpu.AllocRecord, site string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.allocs = append(t.allocs, rec)
	sort.Slice(t.allocs, func(i, j int) bool { return t.allocs[i].Base < t.allocs[j].Base })
	t.result.Allocs = append(t.result.Allocs, trace.Alloc{ID: rec.ID, Words: rec.Words, Site: site})
}

// OnLaunch implements cuda.Observer: it registers the invocation and
// returns the device-side instrumentation for it.
func (t *Tracer) OnLaunch(info cuda.LaunchInfo) gpu.Instrument {
	g := adcfg.NewGraph(info.Kernel.Name)
	inv := &trace.Invocation{
		Seq:     info.Seq,
		StackID: info.StackID,
		Kernel:  info.Kernel.Name,
		Grid:    info.Grid,
		Block:   info.Block,
		Graph:   g,
	}
	t.mu.Lock()
	t.result.Invocations = append(t.result.Invocations, inv)
	rebase := t.rebaseFunc()
	t.mu.Unlock()
	li := &launchInst{tracer: t, graph: g, rebase: rebase}
	if t.cost {
		li.inv = inv
		li.cost = microarch.NewCollector()
	}
	return li
}

// rebaseFunc snapshots the allocation table into a rebasing closure.
// Global addresses map to (allocation ID + 1) << 40 | offset; addresses
// outside any allocation keep their raw value with the top bit set. Other
// spaces are already layout-independent and pass through unchanged.
func (t *Tracer) rebaseFunc() func(space isa.Space, addr int64) uint64 {
	if !t.rebase {
		return nil
	}
	allocs := make([]gpu.AllocRecord, len(t.allocs))
	copy(allocs, t.allocs)
	return func(space isa.Space, addr int64) uint64 {
		if space != isa.SpaceGlobal {
			return uint64(addr)
		}
		// Find the last allocation with Base <= addr.
		i := sort.Search(len(allocs), func(i int) bool { return allocs[i].Base > addr }) - 1
		if i >= 0 && addr < allocs[i].Base+allocs[i].Words {
			return uint64(allocs[i].ID+1)<<40 | uint64(addr-allocs[i].Base)
		}
		return uint64(addr) | 1<<63
	}
}

// launchInst instruments one kernel launch.
type launchInst struct {
	tracer *Tracer
	graph  *adcfg.Graph
	rebase func(space isa.Space, addr int64) uint64
	// Cost-channel state, nil unless WithCost: the invocation to finalize
	// into and the launch-wide aggregate fed by retiring warps.
	inv  *trace.Invocation
	cost *microarch.Collector
}

var _ gpu.Instrument = (*launchInst)(nil)

// BeginWarp returns hooks that buffer the warp's block path and lane
// addresses in a folder of its own; the folder folds into the
// invocation's A-DCFG when the warp retires, so thread blocks can execute
// in parallel while aggregation stays commutative and deterministic. With
// the cost channel on, the hooks are a distinct type satisfying
// simt.CostHooks — plain traced runs must not, or every traced uop would
// pay the register-write callback.
func (li *launchInst) BeginWarp(_ gpu.Dim3, _ int) simt.Hooks {
	f := folders.Get().(*adcfg.WarpFolder)
	f.Reset(li.graph, li.rebase)
	wh := warpHooks{inst: li, folder: f}
	if li.cost != nil {
		return &costWarpHooks{warpHooks: wh, cost: microarch.NewCollector()}
	}
	h := wh
	return &h
}

// warpHooks adapts one warp's simt callbacks onto a WarpFolder. This is
// the interpreter's hot path: both callbacks only append to the folder's
// warp-local buffers, without retaining the addrs slice (the interpreter
// reuses one address buffer per warp).
type warpHooks struct {
	inst   *launchInst
	folder *adcfg.WarpFolder
}

var _ simt.Hooks = (*warpHooks)(nil)

func (w *warpHooks) OnBlockEnter(block int, _ uint32) {
	w.folder.EnterBlock(block)
}

func (w *warpHooks) OnMemAccess(_, memIdx int, space isa.Space, store bool, addrs []int64) {
	w.folder.MemAccess(memIdx, space, store, addrs)
}

// EndWarp folds the warp into the invocation graph under the tracer lock,
// taken once per warp.
func (w *warpHooks) EndWarp() {
	w.inst.tracer.mu.Lock()
	w.finish()
	w.inst.tracer.mu.Unlock()
}

// finish folds the warp and recycles its folder, detached from the graph
// so the pool does not keep the trace alive. The caller holds the tracer
// lock.
func (w *warpHooks) finish() {
	w.folder.Finish()
	w.folder.Reset(nil, nil)
	folders.Put(w.folder)
	w.folder = nil
}

// costWarpHooks extends warpHooks with the cost-channel observables. It
// is the only hooks type that satisfies simt.CostHooks, so the
// interpreter fires OnRegWrite exclusively on cost-enabled runs. Memory
// accesses feed both the A-DCFG folder and the warp-local collector.
type costWarpHooks struct {
	warpHooks
	cost *microarch.Collector
}

var _ simt.CostHooks = (*costWarpHooks)(nil)

func (w *costWarpHooks) OnMemAccess(block, memIdx int, space isa.Space, store bool, addrs []int64) {
	w.folder.MemAccess(memIdx, space, store, addrs)
	w.cost.RecordMem(block, memIdx, space, addrs)
}

func (w *costWarpHooks) OnRegWrite(block, instr int, vals *[simt.WarpWidth]int64, mask uint32) {
	w.cost.RecordRegWrite(block, instr, vals, mask)
}

// EndWarp folds the warp as usual and, under the same lock, folds the
// warp's cost aggregate into the launch-wide collector and re-renders the
// invocation's canonical cost sites. Re-rendering per warp keeps the
// invocation valid at every quiescent point without needing an
// end-of-launch callback.
func (w *costWarpHooks) EndWarp() {
	w.inst.tracer.mu.Lock()
	w.finish()
	w.cost.MergeInto(w.inst.cost)
	w.inst.inv.Cost = w.inst.cost.Sites()
	w.inst.tracer.mu.Unlock()
	w.cost = nil
}
