package perfmodel

import (
	"sync"
	"testing"

	"opsched/internal/graph"
	"opsched/internal/op"
)

// cacheGraph builds a small two-class graph; separate calls return separate
// Graph instances with identical content signatures.
func cacheGraph() *graph.Graph {
	g := graph.New("cache-test")
	a := g.Add(op.Conv(op.Conv2D, 32, 8, 8, 128, 3, 128, 1), "conv")
	g.Add(op.Elementwise(op.Relu, 32, 8, 8, 128), "relu", a)
	return g
}

func TestCacheHitAcrossGraphInstances(t *testing.T) {
	c := NewCache()
	m := knl()

	s1 := c.ProfileGraph(m, cacheGraph(), 4)
	if hits, misses := c.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("after first call: hits/misses = %d/%d, want 0/1", hits, misses)
	}
	// A freshly built graph with the same content must hit.
	s2 := c.ProfileGraph(m, cacheGraph(), 4)
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("after second call: hits/misses = %d/%d, want 1/1", hits, misses)
	}
	if s1 != s2 {
		t.Error("cache returned a different Store for an identical (machine, graph, interval)")
	}
	if s1.Len() != 2 {
		t.Errorf("store has %d profiles, want 2 (one per operation class)", s1.Len())
	}
}

func TestCacheKeyedByIntervalMachineAndContent(t *testing.T) {
	c := NewCache()
	m := knl()
	g := cacheGraph()

	base := c.ProfileGraph(m, g, 4)
	if c.ProfileGraph(m, g, 2) == base {
		t.Error("different climb interval reused the same store")
	}
	m2 := knl()
	m2.Cores = 34
	if c.ProfileGraph(m2, g, 4) == base {
		t.Error("different machine reused the same store")
	}
	g2 := cacheGraph()
	g2.Add(op.Elementwise(op.Add, 32, 8, 8, 128), "extra", 1)
	if c.ProfileGraph(m, g2, 4) == base {
		t.Error("different graph content reused the same store")
	}
	if c.Len() != 4 {
		t.Errorf("cache has %d entries, want 4 distinct keys", c.Len())
	}
}

// TestCacheConcurrentSingleComputation drives one key from many goroutines:
// exactly one computes, everyone gets the same store (verified under -race).
func TestCacheConcurrentSingleComputation(t *testing.T) {
	c := NewCache()
	m := knl()

	const n = 16
	stores := make([]*Store, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			stores[i] = c.ProfileGraph(m, cacheGraph(), 4)
		}(i)
	}
	wg.Wait()

	hits, misses := c.Stats()
	if misses != 1 || hits != n-1 {
		t.Errorf("hits/misses = %d/%d, want %d/1", hits, misses, n-1)
	}
	for i := 1; i < n; i++ {
		if stores[i] != stores[0] {
			t.Fatalf("goroutine %d got a different store", i)
		}
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache()
	m := knl()
	c.ProfileGraph(m, cacheGraph(), 4)
	c.Reset()
	if c.Len() != 0 {
		t.Errorf("Len after Reset = %d", c.Len())
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 0 {
		t.Errorf("Stats after Reset = %d/%d", hits, misses)
	}
	c.ProfileGraph(m, cacheGraph(), 4)
	if _, misses := c.Stats(); misses != 1 {
		t.Error("recompute after Reset did not count as a miss")
	}
}

// TestCachedProfileGraphHitAllocs: a process-wide cache hit allocates
// nothing — it runs for every job of every simulated wave.
func TestCachedProfileGraphHitAllocs(t *testing.T) {
	m, g := knl(), cacheGraph()
	CachedProfileGraph(m, g, 4)
	if n := testing.AllocsPerRun(100, func() { CachedProfileGraph(m, g, 4) }); n != 0 {
		t.Errorf("CachedProfileGraph hit: %v allocs, want 0", n)
	}
}

// TestDeriveOncePerStore: Derive runs build once per key and store, and a
// reset cache hands out a store with none of the old derived values.
func TestDeriveOncePerStore(t *testing.T) {
	ResetCache()
	defer ResetCache()
	m := knl()
	s := CachedProfileGraph(m, cacheGraph(), 4)
	builds := 0
	build := func() any { builds++; return builds }
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v := s.Derive("k", build); v != 1 {
				t.Errorf("Derive = %v, want 1", v)
			}
		}()
	}
	wg.Wait()
	if v := s.Derive("other", build); v != 2 || builds != 2 {
		t.Errorf("second key: Derive = %v after %d builds, want 2 after 2", v, builds)
	}
	ResetCache()
	if v := CachedProfileGraph(m, cacheGraph(), 4).Derive("k", build); v != 3 {
		t.Errorf("after ResetCache: Derive = %v, want a fresh build (3)", v)
	}
}

// TestDeriveOncePerProcess: the process-wide Derive runs build once per
// key however many goroutines ask at once, keeps keys apart, and
// ResetCache drops every entry.
func TestDeriveOncePerProcess(t *testing.T) {
	type key struct{ n int }
	ResetCache()
	defer ResetCache()
	var mu sync.Mutex
	builds := make(map[key]int)
	build := func(k key) func() any {
		return func() any {
			mu.Lock()
			defer mu.Unlock()
			builds[k]++
			return builds[k]*100 + k.n
		}
	}
	const goroutines, keys = 8, 3
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < keys; n++ {
				if v := Derive(key{n}, build(key{n})); v != 100+n {
					t.Errorf("Derive(%d) = %v, want %d", n, v, 100+n)
				}
			}
		}()
	}
	wg.Wait()
	for n := 0; n < keys; n++ {
		if builds[key{n}] != 1 {
			t.Errorf("key %d built %d times, want once", n, builds[key{n}])
		}
	}
	ResetCache()
	for n := 0; n < keys; n++ {
		if v := Derive(key{n}, build(key{n})); v != 200+n {
			t.Errorf("after ResetCache: Derive(%d) = %v, want a fresh build (%d)", n, v, 200+n)
		}
	}
}
