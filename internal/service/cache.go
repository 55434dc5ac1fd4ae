package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"owl/internal/core"
)

// CacheKey identifies a detection result: the workload name plus a hash
// of every option that influences the outcome — including the evidence
// configuration, since mode, thresholds, and the early-stop policy all
// change the report. Workers and Runner are excluded on purpose —
// recording on any number of slots, locally or on a fleet, produces
// identical reports — so a job resubmitted under another recording
// strategy is still a hit.
func CacheKey(program string, opts core.Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|%d|%g|%d|%v|%v|%v|%+v|%+v",
		program, opts.FixedRuns, opts.RandomRuns, opts.Confidence, opts.Seed,
		opts.Rebase, opts.FilterDuplicates, opts.UseWelch, opts.Device, opts.Evidence)
	return hex.EncodeToString(h.Sum(nil))
}

// Cache is a mutex-guarded LRU of detection reports.
type Cache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recent; values are cacheEntry
	entries map[string]*list.Element
}

type cacheEntry struct {
	key    string
	report *core.Report
}

// NewCache builds a cache holding up to capacity reports; capacity <= 0
// disables caching (every Get misses, Add is a no-op).
func NewCache(capacity int) *Cache {
	return &Cache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// Get returns the cached report for key, refreshing its recency.
func (c *Cache) Get(key string) (*core.Report, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(cacheEntry).report, true
}

// Add stores a report under key, evicting the least-recently-used entry
// when over capacity.
func (c *Cache) Add(key string, report *core.Report) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value = cacheEntry{key: key, report: report}
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(cacheEntry{key: key, report: report})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(cacheEntry).key)
	}
}

// Len returns the number of cached reports.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
