package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"owl/internal/cuda"
	"owl/internal/trace"
)

// mkTrace builds a minimal distinguishable trace.
func mkTrace(i int) *trace.ProgramTrace {
	return &trace.ProgramTrace{Program: fmt.Sprintf("t%d", i)}
}

// TestOrderedSinkReordersArrivals delivers indices in a shuffled order
// from one goroutine per index and checks consumption happens strictly
// in index order.
func TestOrderedSinkReordersArrivals(t *testing.T) {
	const n = 50
	var mu sync.Mutex
	var got []int
	s := newOrderedSink(n, func(i int, tr *trace.ProgramTrace) error {
		mu.Lock()
		got = append(got, i)
		mu.Unlock()
		if tr.Program != fmt.Sprintf("t%d", i) {
			return fmt.Errorf("index %d carried trace %q", i, tr.Program)
		}
		return nil
	})
	order := rand.New(rand.NewSource(7)).Perm(n)
	var wg sync.WaitGroup
	for _, i := range order {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.Sink(context.Background(), RunResult{Index: i, Trace: mkTrace(i)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if s.delivered() != n {
		t.Fatalf("delivered %d of %d", s.delivered(), n)
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("consumed index %d at position %d", idx, i)
		}
	}
}

// TestOrderedSinkBackpressure checks a full reorder window blocks
// out-of-order deliverers until the frontier advances, and that delivery
// of the next expected index never blocks.
func TestOrderedSinkBackpressure(t *testing.T) {
	s := newOrderedSink(1, func(int, *trace.ProgramTrace) error { return nil })

	blocked := make(chan error, 1)
	// Index 1 parks in the window; index 2 must block (window full).
	if err := s.Sink(context.Background(), RunResult{Index: 1, Trace: mkTrace(1)}); err != nil {
		t.Fatal(err)
	}
	go func() {
		blocked <- s.Sink(context.Background(), RunResult{Index: 2, Trace: mkTrace(2)})
	}()
	select {
	case err := <-blocked:
		t.Fatalf("over-window delivery did not block (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	// The next expected index unblocks everything.
	if err := s.Sink(context.Background(), RunResult{Index: 0, Trace: mkTrace(0)}); err != nil {
		t.Fatal(err)
	}
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	if s.delivered() != 3 {
		t.Fatalf("delivered %d of 3", s.delivered())
	}
}

// TestOrderedSinkContextCancel checks a blocked deliverer aborts on
// context cancellation and the sink stays poisoned afterwards.
func TestOrderedSinkContextCancel(t *testing.T) {
	s := newOrderedSink(1, func(int, *trace.ProgramTrace) error { return nil })
	ctx, cancel := context.WithCancel(context.Background())
	if err := s.Sink(ctx, RunResult{Index: 1, Trace: mkTrace(1)}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- s.Sink(ctx, RunResult{Index: 2, Trace: mkTrace(2)})
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked delivery returned %v, want context.Canceled", err)
	}
	if err := s.Sink(context.Background(), RunResult{Index: 0, Trace: mkTrace(0)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("poisoned sink accepted a delivery (err=%v)", err)
	}
}

// TestOrderedSinkParksDuringConsume blocks consume(0) and checks that
// deliveries of indices 1..window all park and return while it runs:
// the merge never holds up the goroutines that record. Released, the
// drainer then consumes everything in index order.
func TestOrderedSinkParksDuringConsume(t *testing.T) {
	const window = 8
	release := make(chan struct{})
	entered := make(chan struct{})
	var got []int // written by the single drainer only
	s := newOrderedSink(window, func(i int, _ *trace.ProgramTrace) error {
		if i == 0 {
			close(entered)
			<-release
		}
		got = append(got, i)
		return nil
	})
	first := make(chan error, 1)
	go func() { first <- s.Sink(context.Background(), RunResult{Index: 0, Trace: mkTrace(0)}) }()
	<-entered

	parkAll(t, s, window, release)
	close(release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if s.delivered() != window+1 {
		t.Fatalf("delivered %d of %d", s.delivered(), window+1)
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("consumed %v, want 0..%d in order", got, window)
		}
	}
}

// parkAll delivers indices 1..n from one goroutine each while consume(0)
// is blocked and requires every delivery to return nil within a
// deadline; on failure it closes release so that nothing stays blocked.
func parkAll(t *testing.T, s *orderedSink, n int, release chan struct{}) {
	t.Helper()
	parked := make(chan error, n)
	for i := 1; i <= n; i++ {
		go func(i int) {
			parked <- s.Sink(context.Background(), RunResult{Index: i, Trace: mkTrace(i)})
		}(i)
	}
	deadline := time.After(5 * time.Second)
	for i := 1; i <= n; i++ {
		select {
		case err := <-parked:
			if err != nil {
				close(release)
				t.Fatal(err)
			}
		case <-deadline:
			close(release)
			t.Fatalf("%d of %d deliveries still waiting while consume(0) runs", n-i+1, n)
		}
	}
}

// TestOrderedSinkConsumeErrorWakesDeliverers fails consume(0) while the
// window is full and further deliverers wait on it: the drainer and
// every waiting deliverer get the error, and so does any later delivery.
func TestOrderedSinkConsumeErrorWakesDeliverers(t *testing.T) {
	const window = 2
	boom := errors.New("merge failed")
	release := make(chan struct{})
	entered := make(chan struct{})
	s := newOrderedSink(window, func(i int, _ *trace.ProgramTrace) error {
		if i == 0 {
			close(entered)
			<-release
			return boom
		}
		return nil
	})
	first := make(chan error, 1)
	go func() { first <- s.Sink(context.Background(), RunResult{Index: 0, Trace: mkTrace(0)}) }()
	<-entered
	parkAll(t, s, window, release) // fill the window
	const waiting = 3
	waited := make(chan error, waiting)
	for i := window + 1; i <= window+waiting; i++ {
		go func(i int) {
			waited <- s.Sink(context.Background(), RunResult{Index: i, Trace: mkTrace(i)})
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let them block on the full window
	close(release)
	if err := <-first; !errors.Is(err, boom) {
		t.Fatalf("drainer returned %v, want %v", err, boom)
	}
	for i := 0; i < waiting; i++ {
		select {
		case err := <-waited:
			if !errors.Is(err, boom) {
				t.Fatalf("waiting deliverer returned %v, want %v", err, boom)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a waiting deliverer was not woken by the failure")
		}
	}
	if err := s.Sink(context.Background(), RunResult{Index: 99, Trace: mkTrace(99)}); !errors.Is(err, boom) {
		t.Fatalf("poisoned sink accepted a delivery (err=%v)", err)
	}
	if s.delivered() != 0 {
		t.Fatalf("delivered %d after consume(0) failed", s.delivered())
	}
}

// seqStream is a minimal streaming Runner: record each request in order
// and deliver its trace straight to the sink.
type seqStream struct{}

func (seqStream) RecordStream(ctx context.Context, p cuda.Program, reqs []RunRequest, record RecordFn, sink TraceSink) error {
	for _, req := range reqs {
		tr, err := record(ctx, p, req.Input, req.Seed)
		if err != nil {
			return err
		}
		if err := sink(ctx, RunResult{Index: req.Index, Trace: tr}); err != nil {
			return err
		}
	}
	return nil
}

// TestSeqStreamDeliversInOrder pins the reference Runner used across the
// core tests: request order in, request order out.
func TestSeqStreamDeliversInOrder(t *testing.T) {
	record := func(ctx context.Context, p cuda.Program, input []byte, seed int64) (*trace.ProgramTrace, error) {
		return mkTrace(int(seed)), nil
	}
	reqs := []RunRequest{{Index: 0, Seed: 0}, {Index: 1, Seed: 1}, {Index: 2, Seed: 2}}
	var got []string
	sink := func(ctx context.Context, res RunResult) error {
		got = append(got, res.Trace.Program)
		return nil
	}
	if err := (seqStream{}).RecordStream(context.Background(), nil, reqs, record, sink); err != nil {
		t.Fatal(err)
	}
	if want := []string{"t0", "t1", "t2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed %v, want %v", got, want)
	}
}

// TestNewDetectorRejectsWorkersAndRunner checks the two recording
// strategies are mutually exclusive.
func TestNewDetectorRejectsWorkersAndRunner(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 4
	opts.Runner = seqStream{}
	if _, err := NewDetector(opts); err == nil {
		t.Fatal("NewDetector accepted both Workers and Runner")
	}
	opts.Workers = 0
	if _, err := NewDetector(opts); err != nil {
		t.Fatalf("Runner alone rejected: %v", err)
	}
	opts.Runner = nil
	opts.Workers = 4
	if _, err := NewDetector(opts); err != nil {
		t.Fatalf("Workers alone rejected: %v", err)
	}
}

// TestStreamParallelFirstError checks a pool stream reports the first
// failure and stops dispatching.
func TestStreamParallelFirstError(t *testing.T) {
	boom := errors.New("boom")
	var recorded int
	var mu sync.Mutex
	record := func(ctx context.Context, p cuda.Program, input []byte, seed int64) (*trace.ProgramTrace, error) {
		mu.Lock()
		recorded++
		mu.Unlock()
		if seed == 3 {
			return nil, boom
		}
		return mkTrace(int(seed)), nil
	}
	reqs := make([]RunRequest, 64)
	for i := range reqs {
		reqs[i] = RunRequest{Index: i, Seed: int64(i)}
	}
	sink := func(ctx context.Context, res RunResult) error { return nil }
	err := NewPool(2).RecordStream(context.Background(), nil, reqs, record, sink)
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the record error", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if recorded == len(reqs) {
		t.Error("error did not stop dispatch")
	}
}

// trackPeak raises peak to n if n is larger.
func trackPeak(peak *atomic.Int64, n int64) {
	for {
		old := peak.Load()
		if n <= old || peak.CompareAndSwap(old, n) {
			return
		}
	}
}

// TestPoolOrderAndBound checks every trace streams to the sink exactly
// once while concurrency stays within the pool bound, and that a
// reorder-window sink restores request order.
func TestPoolOrderAndBound(t *testing.T) {
	pool := NewPool(3)
	reqs := make([]RunRequest, 16)
	for i := range reqs {
		reqs[i] = RunRequest{Index: i, Input: []byte{byte(i)}, Seed: int64(i + 1)}
	}
	var inFlight, peak atomic.Int64
	record := func(ctx context.Context, p cuda.Program, input []byte, seed int64) (*trace.ProgramTrace, error) {
		trackPeak(&peak, inFlight.Add(1))
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return &trace.ProgramTrace{Program: string(input)}, nil
	}
	var (
		mu     sync.Mutex
		order  []int
		traces []*trace.ProgramTrace
	)
	sink := OrderedSink(len(reqs), func(i int, tr *trace.ProgramTrace) error {
		mu.Lock()
		defer mu.Unlock()
		order = append(order, i)
		traces = append(traces, tr)
		return nil
	})
	if err := pool.RecordStream(context.Background(), nil, reqs, record, sink); err != nil {
		t.Fatal(err)
	}
	if len(traces) != len(reqs) {
		t.Fatalf("%d traces for %d requests", len(traces), len(reqs))
	}
	for i, tr := range traces {
		if order[i] != i {
			t.Fatalf("sink consumed index %d at position %d", order[i], i)
		}
		if tr == nil || tr.Program != string([]byte{byte(i)}) {
			t.Fatalf("trace %d missing or out of order", i)
		}
	}
	if p := peak.Load(); p > 3 {
		t.Errorf("peak concurrency %d exceeds pool bound 3", p)
	}
}

// TestPoolSharedAcrossStreams runs two streams at once on one 2-slot
// pool, as owld runs concurrent jobs: the slots bound both streams
// together, a record error fails only its own stream, and every slot is
// free again afterwards.
func TestPoolSharedAcrossStreams(t *testing.T) {
	pool := NewPool(2)
	boom := errors.New("boom")
	var inFlight, peak atomic.Int64
	// The healthy stream's first run holds its slot until the failing
	// stream has failed, so the failure lands while the healthy stream is
	// still in flight.
	failed := make(chan struct{})
	var failOnce sync.Once
	failing := func(ctx context.Context, p cuda.Program, input []byte, seed int64) (*trace.ProgramTrace, error) {
		trackPeak(&peak, inFlight.Add(1))
		defer inFlight.Add(-1)
		time.Sleep(time.Millisecond)
		if seed == 1 {
			failOnce.Do(func() { close(failed) })
			return nil, boom
		}
		return mkTrace(int(seed)), nil
	}
	healthy := func(ctx context.Context, p cuda.Program, input []byte, seed int64) (*trace.ProgramTrace, error) {
		trackPeak(&peak, inFlight.Add(1))
		defer inFlight.Add(-1)
		if seed == 0 {
			<-failed
		}
		time.Sleep(time.Millisecond)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return mkTrace(int(seed)), nil
	}
	reqs := func(n int) []RunRequest {
		out := make([]RunRequest, n)
		for i := range out {
			out[i] = RunRequest{Index: i, Seed: int64(i)}
		}
		return out
	}
	var delivered [16]atomic.Int64
	countSink := func(ctx context.Context, res RunResult) error {
		delivered[res.Index].Add(1)
		return nil
	}
	noSink := func(ctx context.Context, res RunResult) error { return nil }

	errs := make(chan error, 2)
	go func() { errs <- pool.RecordStream(context.Background(), nil, reqs(16), healthy, countSink) }()
	go func() { errs <- pool.RecordStream(context.Background(), nil, reqs(8), failing, noSink) }()
	var got []error
	for range 2 {
		select {
		case err := <-errs:
			got = append(got, err)
		case <-time.After(10 * time.Second):
			t.Fatal("streams sharing the pool did not finish")
		}
	}
	var nilErrs, boomErrs int
	for _, err := range got {
		switch {
		case err == nil:
			nilErrs++
		case errors.Is(err, boom):
			boomErrs++
		default:
			t.Errorf("unexpected stream error %v", err)
		}
	}
	if nilErrs != 1 || boomErrs != 1 {
		t.Fatalf("stream results %v, want one nil and one %v", got, boom)
	}
	for i := range delivered {
		if n := delivered[i].Load(); n != 1 {
			t.Errorf("healthy stream delivered index %d %d times, want once", i, n)
		}
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("peak in-flight %d across both streams exceeds the 2 slots", p)
	}
	if a, i := pool.Active(), pool.Idle(); a != 0 || i != 2 {
		t.Errorf("after both streams: Active %d, Idle %d, want 0 and 2", a, i)
	}
}
