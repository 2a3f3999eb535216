package service

import (
	"container/list"
	"reflect"
	"sync"

	"repro/internal/sim"
)

// resultCache is the daemon's content-addressed result store: an LRU map
// from runner.Job fingerprints to simulation results, with hit/miss
// accounting surfaced on /metrics. It plays the IRB's role one level up —
// the IRB memoizes duplicate-stream instruction executions under a
// PC+operand key, the resultCache memoizes whole grid cells under a
// config+workload+seed+fault key — and like the IRB it is purely an
// optimization: a hit is bit-identical to re-running the cell, because
// simulation is deterministic in the fingerprinted inputs.
//
// It implements runner.Cache and is safe for concurrent use. A stored
// result is never modified: Put replaces it, and run records may share
// it (shared).
type resultCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits, misses, inserts, evictions uint64
}

type cacheItem struct {
	key string
	res *sim.Result
}

// newResultCache builds a cache bounded to max entries (min 1).
func newResultCache(max int) *resultCache {
	if max < 1 {
		max = 1
	}
	return &resultCache{
		max:   max,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// Get implements runner.Cache.
func (c *resultCache) Get(key string) (sim.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return sim.Result{}, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return *el.Value.(*cacheItem).res, true
}

// shared returns the stored result for key when it equals r, so a run
// record holds the cached result instead of another copy of it, and a
// copy of r otherwise. It counts neither a hit nor a miss.
func (c *resultCache) shared(key string, r sim.Result) *sim.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		if p := el.Value.(*cacheItem).res; reflect.DeepEqual(*p, r) {
			return p
		}
	}
	return &r
}

// Put implements runner.Cache, evicting the least recently used entry
// when the bound is exceeded.
func (c *resultCache) Put(key string, res sim.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheItem).res = &res
		c.ll.MoveToFront(el)
		return
	}
	c.inserts++
	c.items[key] = c.ll.PushFront(&cacheItem{key: key, res: &res})
	for c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheItem).key)
		c.evictions++
	}
}

// cacheStats is a consistent snapshot of the cache counters.
type cacheStats struct {
	Hits, Misses, Inserts, Evictions uint64
	Entries                          int
}

func (c *resultCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		Hits: c.hits, Misses: c.misses,
		Inserts: c.inserts, Evictions: c.evictions,
		Entries: c.ll.Len(),
	}
}
