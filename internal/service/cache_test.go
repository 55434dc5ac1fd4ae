package service

import (
	"context"
	"sync/atomic"
	"testing"

	"owl/internal/core"
	"owl/internal/cuda"
	"owl/internal/trace"
	"owl/internal/workloads/dummy"
)

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	r1, r2, r3 := &core.Report{Program: "a"}, &core.Report{Program: "b"}, &core.Report{Program: "c"}
	c.Add("a", r1)
	c.Add("b", r2)
	if _, ok := c.Get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	c.Add("c", r3)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if got, ok := c.Get("a"); !ok || got != r1 {
		t.Error("a lost")
	}
	if got, ok := c.Get("c"); !ok || got != r3 {
		t.Error("c lost")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(-1)
	c.Add("k", &core.Report{})
	if _, ok := c.Get("k"); ok {
		t.Error("disabled cache served a hit")
	}
}

func TestCacheKeySensitivity(t *testing.T) {
	base := core.DefaultOptions()
	k := CacheKey("p", base)
	if CacheKey("q", base) == k {
		t.Error("program name not in key")
	}
	changed := base
	changed.Seed++
	if CacheKey("p", changed) == k {
		t.Error("seed not in key")
	}
	changed = base
	changed.FixedRuns++
	if CacheKey("p", changed) == k {
		t.Error("fixed runs not in key")
	}
	// The cost channel changes the recorded traces (cost sites join the
	// canonical encoding), so a cost job must never hit an adcfg-only
	// cached report — and vice versa.
	changed = base
	changed.Evidence.Mode = core.EvidenceBoth
	changed.Evidence.Channels = []string{core.ChannelADCFG, core.ChannelCost}
	costKey := CacheKey("p", changed)
	if costKey == k {
		t.Error("evidence channels not in key")
	}
	changed.Evidence.Channels = []string{core.ChannelADCFG}
	if CacheKey("p", changed) == costKey {
		t.Error("channel list content not in key")
	}
	// Workers and Runner do not influence results, so they must not
	// influence the key either.
	concurrent := base
	concurrent.Workers = 8
	concurrent.Runner = NewPool(2)
	if CacheKey("p", concurrent) != k {
		t.Error("recording strategy leaked into the cache key")
	}
}

// TestPoolCancellation verifies a canceled stream returns promptly with
// the context error and never reaches the sink.
func TestPoolCancellation(t *testing.T) {
	pool := NewPool(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := []core.RunRequest{{Index: 0}, {Index: 1}}
	record := func(ctx context.Context, p cuda.Program, input []byte, seed int64) (*trace.ProgramTrace, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, nil
	}
	var delivered atomic.Int64
	sink := func(ctx context.Context, res core.RunResult) error {
		delivered.Add(1)
		return nil
	}
	if err := pool.RecordStream(ctx, dummy.New(), reqs, record, sink); err == nil {
		t.Fatal("canceled stream returned no error")
	}
	if n := delivered.Load(); n != 0 {
		t.Errorf("canceled stream delivered %d traces", n)
	}
}
