package exec

import (
	"testing"

	"opsched/internal/graph"
	"opsched/internal/hw"
	"opsched/internal/op"
)

// TestEventLoopAllocationFree: on a warm State, RecomputeRates and
// AdvanceToNextCompletion allocate nothing — the running set, the
// completed buffer and the Running values Start carves are all reused.
// The running set covers every RecomputeRates branch: a full-width host
// with a hyper-threading guest, pinned and unpinned co-runners, and more
// threads than cores.
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
	st := &State{Machine: m, Graph: g}
	start := func() {
		for _, d := range decs {
			st.Ready = append(st.Ready, d.Node)
		}
		for _, d := range decs {
			if _, err := Start(st, d); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle := func() {
		start()
		for len(st.Running) > 0 {
			RecomputeRates(st)
			AdvanceToNextCompletion(st)
		}
	}

	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Errorf("a Start/RecomputeRates/AdvanceToNextCompletion cycle allocates %v objects, want 0", n)
	}
	start()
	if n := testing.AllocsPerRun(20, func() { RecomputeRates(st) }); n != 0 {
		t.Errorf("RecomputeRates allocates %v objects, want 0", n)
	}
	if len(st.Running) != len(decs) {
		t.Fatalf("RecomputeRates changed the running set to %d ops", len(st.Running))
	}
}
