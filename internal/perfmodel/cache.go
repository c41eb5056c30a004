package perfmodel

import (
	"sync"

	"opsched/internal/graph"
	"opsched/internal/hw"
	"opsched/internal/op"
)

// Cache memoizes ProfileGraph results keyed by (machine, graph signature,
// climb interval), so repeated sweeps over the same workload reuse
// hill-climb profiles instead of re-running the search. It is safe for
// concurrent use; concurrent requests for the same key block on a single
// computation instead of duplicating it. The returned Store is shared and
// must be treated as read-only — every runtime consumer only reads profiles
// after the profiling phase, which is exactly the paper's usage (profiles
// are frozen after the first few training steps).
type Cache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	hits    int
	misses  int
}

type cacheEntry struct {
	once  sync.Once
	store *Store
}

// NewCache returns an empty profile cache.
func NewCache() *Cache { return &Cache{entries: make(map[cacheKey]*cacheEntry)} }

// cacheKey fingerprints the lookup: the machine's full analytic description
// (any constant change invalidates profiles), the graph's content signature
// and the climb interval.
type cacheKey struct {
	machine  hw.Machine
	graph    string
	interval int
}

// ProfileGraph returns the hill-climb store for (m, g, interval), computing
// it at most once per key. The first caller per key runs the search; callers
// arriving while it is in flight wait for the same result.
func (c *Cache) ProfileGraph(m *hw.Machine, g *graph.Graph, interval int) *Store {
	key := cacheKey{*m, g.Signature(), interval}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()

	computed := false
	e.once.Do(func() {
		e.store = ProfileGraph(m, g, interval)
		computed = true
	})

	c.mu.Lock()
	if computed {
		c.misses++
	} else {
		c.hits++
	}
	c.mu.Unlock()
	return e.store
}

// Stats reports cache hits and misses so far. A "hit" includes callers that
// waited on another goroutine's in-flight computation.
func (c *Cache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of cached profile stores.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Reset drops every cached store and zeroes the counters.
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[cacheKey]*cacheEntry)
	c.hits, c.misses = 0, 0
}

// defaultCache backs CachedProfileGraph: one process-wide store shared by
// the runtime, the experiments and the sweep engine.
var defaultCache = NewCache()

// CachedProfileGraph is ProfileGraph through the process-wide cache.
func CachedProfileGraph(m *hw.Machine, g *graph.Graph, interval int) *Store {
	return defaultCache.ProfileGraph(m, g, interval)
}

// CacheStats reports the process-wide cache's hits and misses.
func CacheStats() (hits, misses int) { return defaultCache.Stats() }

// processDerived backs Derive: read-only values derived once per process.
var processDerived derivedTable

// Derive is the process-wide sibling of Store.Derive: it returns the value
// build computes for key, running build at most once per key until
// ResetCache; concurrent callers for one key wait for the same result. It
// holds per-model values every engine in the process would otherwise
// rebuild identically — model graphs, profiled runtime jobs with their solo
// makespans, predicted work — so key must fix the value exactly (for
// example a model key plus the hardware and configuration it is priced
// on), must be comparable, and the value must be read-only once built.
// Callers on a hot path keep their own front map: a key is boxed and
// hashed under one process-wide mutex.
func Derive(key any, build func() any) any { return processDerived.derive(key, build) }

// ResetCache clears every process-wide cache: the hill-climb profile
// stores with the tables derived from them, the values Derive holds, and
// the operation-class intern table (tests and benchmarks that must measure
// a cold start).
func ResetCache() {
	defaultCache.Reset()
	processDerived.reset()
	op.ResetClasses()
}
