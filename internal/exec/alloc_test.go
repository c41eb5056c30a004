package exec

import (
	"testing"

	"opsched/internal/graph"
	"opsched/internal/hw"
	"opsched/internal/op"
)

// TestEventLoopAllocationFree: on a warm loop, launch, recomputeRates,
// advance and harvest allocate nothing — the running set, the retired
// buffer, the Running values launch carves and the record buffer are all
// reused. The running set covers every recomputeRates branch: a full-width
// host with a hyper-threading guest, pinned and unpinned co-runners, and
// more threads than cores.
func TestEventLoopAllocationFree(t *testing.T) {
	m := hw.NewKNL()
	g := graph.New("fan")
	for i := 0; i < 4; i++ {
		g.Add(op.Conv(op.Conv2D, 32, 8, 8, 128, 3, 128, 1), "c")
	}
	decs := []Decision{
		{Node: 0, Threads: m.Cores, Placement: hw.Shared},
		{Node: 1, Threads: 4, Placement: hw.Spread, HT: true, Pinned: true},
		{Node: 2, Threads: 16, Placement: hw.Shared, Pinned: true},
		{Node: 3, Threads: 16, Placement: hw.Spread},
	}
	l := &loop{m: m, lanes: []lane{{view: State{Machine: m, Graph: g}, name: "fan"}}, runs: make([]Result, 1)}
	ln := &l.lanes[0]
	start := func() {
		for _, d := range decs {
			ln.view.Ready = append(ln.view.Ready, d.Node)
		}
		for _, d := range decs {
			if err := l.launch(ln, d); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle := func() {
		l.runs[0].Records = l.runs[0].Records[:0]
		start()
		for len(l.running) > 0 {
			recomputeRates(m, l.running)
			l.harvest(l.advance())
		}
	}

	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Errorf("a launch/recomputeRates/advance/harvest cycle allocates %v objects, want 0", n)
	}
	start()
	if n := testing.AllocsPerRun(20, func() { recomputeRates(m, l.running) }); n != 0 {
		t.Errorf("recomputeRates allocates %v objects, want 0", n)
	}
	if len(l.running) != len(decs) {
		t.Fatalf("recomputeRates changed the running set to %d ops", len(l.running))
	}
}
