// Streaming evidence pipeline: a Runner (Pool, locally) delivers traces
// to a TraceSink as each instrumented execution completes, and an ordered
// reorder window re-establishes request order on the consuming side so
// merge order — and therefore every report — is bit-identical to
// sequential recording while peak heap stays O(workers + window) traces
// instead of O(runs).
package core

import (
	"context"
	"sync"

	"owl/internal/cuda"
	"owl/internal/obs"
	"owl/internal/trace"
)

// DefaultReorderWindow is the number of out-of-order traces an ordered
// consumer buffers before applying backpressure to the delivering
// workers. It bounds the evidence-phase trace heap independently of the
// run count.
const DefaultReorderWindow = 32

// orderedSink re-establishes request order over concurrently delivered
// traces: consume is invoked for index 0, 1, 2, ... regardless of arrival
// order, one call at a time. Arrivals ahead of the next expected index
// park in a bounded pending window and return; once the window is full,
// delivering goroutines block until the merge frontier advances (or
// their context fires). The deliverer of the next expected index becomes
// the drainer: it consumes its own trace and then every parked successor,
// releasing the lock while consume runs so that other deliverers can
// park meanwhile. Delivery of the next expected index never blocks,
// which keeps the window deadlock-free for any runner that dispatches
// requests in index order.
type orderedSink struct {
	mu      sync.Mutex
	wake    chan struct{} // closed and replaced whenever the frontier moves
	next    int           // index being consumed, or the next to arrive
	window  int
	pending map[int]*trace.ProgramTrace
	consume func(idx int, t *trace.ProgramTrace) error
	err     error
}

func newOrderedSink(window int, consume func(int, *trace.ProgramTrace) error) *orderedSink {
	if window < 1 {
		window = DefaultReorderWindow
	}
	return &orderedSink{
		wake:    make(chan struct{}),
		window:  window,
		pending: make(map[int]*trace.ProgramTrace),
		consume: consume,
	}
}

// Sink is the TraceSink of the collector. Safe for concurrent use.
func (s *orderedSink) Sink(ctx context.Context, res RunResult) error {
	s.mu.Lock()
	// stall measures how long this delivery parks on a full reorder
	// window — the backpressure the streaming pipeline trades for its
	// bounded heap. It opens lazily, only if the goroutine actually waits.
	var stall *obs.Span
	for s.err == nil && res.Index != s.next && len(s.pending) >= s.window {
		if stall == nil {
			_, stall = obs.Start(ctx, "reorder.stall")
			stall.SetInt("index", int64(res.Index))
		}
		wake := s.wake
		s.mu.Unlock()
		select {
		case <-wake:
			s.mu.Lock()
		case <-ctx.Done():
			s.mu.Lock()
			s.fail(ctx.Err())
			s.mu.Unlock()
			stall.End()
			return ctx.Err()
		}
	}
	stall.End()
	if err := s.err; err != nil {
		s.mu.Unlock()
		return err
	}
	if res.Index != s.next {
		s.pending[res.Index] = res.Trace
		obs.Counter(ctx, "reorder_pending", float64(len(s.pending)))
		s.mu.Unlock()
		return nil
	}
	// Drain. s.next stays at the index being consumed, so every other
	// deliverer parks, and only this goroutine calls consume.
	idx, t := res.Index, res.Trace
	for {
		s.mu.Unlock()
		err := s.consume(idx, t)
		s.mu.Lock()
		if err != nil {
			s.fail(err)
			s.mu.Unlock()
			return err
		}
		s.next++
		s.broadcast()
		if err := s.err; err != nil { // a waiter's context fired meanwhile
			s.mu.Unlock()
			return err
		}
		nt, ok := s.pending[s.next]
		if !ok {
			break
		}
		delete(s.pending, s.next)
		idx, t = s.next, nt
	}
	obs.Counter(ctx, "reorder_pending", float64(len(s.pending)))
	s.mu.Unlock()
	return nil
}

// delivered returns how many traces have been consumed in order.
func (s *orderedSink) delivered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next
}

// fail poisons the sink (first error wins) and wakes every waiter. Called
// with s.mu held.
func (s *orderedSink) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.broadcast()
}

// broadcast wakes every parked deliverer. Called with s.mu held.
func (s *orderedSink) broadcast() {
	close(s.wake)
	s.wake = make(chan struct{})
}

// OrderedSink builds a TraceSink that re-establishes request order over
// concurrently delivered traces: consume runs for index 0, 1, 2, ...
// regardless of arrival order, with at most window (<= 0 selects
// DefaultReorderWindow) out-of-order traces buffered before deliverers
// block. It is the ordering building block custom Runner consumers can
// reuse; the pipeline's own merge path is Evidence.MergeSink.
func OrderedSink(window int, consume func(idx int, t *trace.ProgramTrace) error) TraceSink {
	return newOrderedSink(window, consume).Sink
}

// Pool is the local recording runner: a fixed set of slots, each
// recording one instrumented execution at a time on its own simulated
// device and context (RecordFn builds a private context per run), so
// concurrency never shares device state. The slots are shared by every
// RecordStream running on the pool at once — the owld daemon hands one
// pool to all its jobs to bound them together. A 1-slot pool records
// sequentially. Because the pipeline draws inputs and per-run seeds
// before dispatch and merges streamed traces through a reorder window,
// pool-backed recording is bit-identical at every slot count.
type Pool struct{ sem chan struct{} }

// NewPool sizes a pool; workers < 1 means 1.
func NewPool(workers int) *Pool {
	return &Pool{sem: make(chan struct{}, max(workers, 1))}
}

// Workers returns the pool's slot count.
func (p *Pool) Workers() int { return cap(p.sem) }

// Active returns how many slots are recording right now.
func (p *Pool) Active() int { return len(p.sem) }

// Idle returns how many slots are free — the backpressure signal owld
// surfaces through /readyz.
func (p *Pool) Idle() int { return cap(p.sem) - len(p.sem) }

// RecordStream implements Runner: requests are dispatched in index order
// as slots free up (in-order dispatch keeps the pipeline's reorder
// window deadlock-free), and each completed trace streams straight into
// sink. The first record or sink error cancels the rest of this stream —
// never another stream sharing the pool — and is returned after its
// in-flight runs unwind.
func (p *Pool) RecordStream(ctx context.Context, prog cuda.Program, reqs []RunRequest, record RecordFn, sink TraceSink) error {
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
dispatch:
	for _, req := range reqs {
		select {
		case p.sem <- struct{}{}:
		case <-ctx.Done():
			break dispatch
		}
		wg.Add(1)
		go func(req RunRequest) {
			defer wg.Done()
			defer func() { <-p.sem }()
			t, err := record(ctx, prog, req.Input, req.Seed)
			if err == nil {
				err = sink(ctx, RunResult{Index: req.Index, Trace: t})
			}
			if err != nil {
				fail(err)
			}
		}(req)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		return firstErr
	}
	return parent.Err()
}
