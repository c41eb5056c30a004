package place

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// The event heap's reference form: a container/heap of versioned entries
// where re-indexing a node bumps its version and leaves the old entry to be
// skipped when it surfaces. The engine's eventHeap keeps one entry per node
// and re-keys it in place; both hold the same set of live entries, so they
// must pop the same (node, startNs) sequence.

type refEntry struct {
	startNs float64
	node    int
	version int
}

type refHeap []refEntry

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(a, b int) bool {
	if h[a].startNs != h[b].startNs {
		return h[a].startNs < h[b].startNs
	}
	return h[a].node < h[b].node
}
func (h refHeap) Swap(a, b int)       { h[a], h[b] = h[b], h[a] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEntry)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// refEvents is the versioned lazy-deletion event index.
type refEvents struct {
	h       refHeap
	version []int
}

func (r *refEvents) set(node int, startNs float64) {
	r.version[node]++
	if !math.IsInf(startNs, 1) {
		heap.Push(&r.h, refEntry{startNs: startNs, node: node, version: r.version[node]})
	}
}

func (r *refEvents) top() (int, float64) {
	for len(r.h) > 0 {
		e := r.h[0]
		if r.version[e.node] == e.version {
			return e.node, e.startNs
		}
		heap.Pop(&r.h)
	}
	return -1, math.Inf(1)
}

func (r *refEvents) pop() {
	r.top()
	heap.Pop(&r.h)
}

// checkEventHeap asserts h's invariants: every slot's node points back at
// the slot, every other node has no slot, and each parent orders before its
// children. It returns the number of nodes with an entry.
func checkEventHeap(t *testing.T, h *eventHeap, step int) {
	t.Helper()
	for i, e := range h.es {
		if h.heapIdx[e.node] != i {
			t.Fatalf("step %d: node %d sits in slot %d but heapIdx says %d", step, e.node, i, h.heapIdx[e.node])
		}
		if i > 0 && h.less(i, (i-1)/2) {
			t.Fatalf("step %d: slot %d orders before its parent", step, i)
		}
	}
	in := 0
	for node, i := range h.heapIdx {
		if i < 0 {
			continue
		}
		in++
		if i >= len(h.es) || h.es[i].node != node {
			t.Fatalf("step %d: heapIdx[%d] = %d names no entry of that node", step, node, i)
		}
	}
	if in != len(h.es) {
		t.Fatalf("step %d: %d nodes indexed, %d entries", step, in, len(h.es))
	}
}

// TestEventHeapMatchesVersionedHeap drives the typed heap and the versioned
// reference with the same random mix of inserts, re-keys, +Inf removals
// and pops over a few hundred nodes, with start times drawn from a handful
// of values so ties on the node index decide most orderings. Both must
// agree on the earliest event after every operation.
func TestEventHeapMatchesVersionedHeap(t *testing.T) {
	const nodes = 300
	times := []float64{0, 1, 1, 2, 3, 3, 3, 5, 8, 1e9, math.Inf(1)}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := newEventHeap(nodes)
		ref := &refEvents{version: make([]int, nodes)}
		pops := 0
		for step := 0; step < 20000; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				node := rng.Intn(nodes)
				ts := times[rng.Intn(len(times))]
				h.set(node, ts)
				ref.set(node, ts)
			case op < 7:
				node := rng.Intn(nodes)
				h.set(node, math.Inf(1))
				ref.set(node, math.Inf(1))
			default:
				gn, gt := h.top()
				rn, rt := ref.top()
				if gn != rn || gt != rt {
					t.Fatalf("seed %d step %d: top (%d, %v), reference (%d, %v)", seed, step, gn, gt, rn, rt)
				}
				if gn >= 0 {
					h.pop()
					ref.pop()
					pops++
				}
			}
			checkEventHeap(t, &h, step)
			gn, gt := h.top()
			rn, rt := ref.top()
			if gn != rn || gt != rt {
				t.Fatalf("seed %d step %d: top (%d, %v), reference (%d, %v)", seed, step, gn, gt, rn, rt)
			}
		}
		// Drain both: the remaining pop sequences must match too.
		for {
			gn, gt := h.top()
			rn, rt := ref.top()
			if gn != rn || gt != rt {
				t.Fatalf("seed %d drain: top (%d, %v), reference (%d, %v)", seed, gn, gt, rn, rt)
			}
			if gn < 0 {
				break
			}
			h.pop()
			ref.pop()
			checkEventHeap(t, &h, -1)
		}
		if pops == 0 {
			t.Fatalf("seed %d: no pops exercised", seed)
		}
	}
}
