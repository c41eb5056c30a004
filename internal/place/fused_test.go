package place

import (
	"math"
	"testing"

	"opsched/internal/gpu"
	"opsched/internal/hw"
	"opsched/internal/nn"
)

// TestFusedPickMatchesPick: the fused scan is the policies' equivalence
// property — on evolving engine state (waves in flight, queues staged,
// inference batches folding) fusedPick returns exactly the node the
// reference Views → Policy.Pick would, for every built-in policy. The
// small fleet keeps every node busy; the wide one, under a dense stream,
// leaves many nodes idle and tied, so the floor cutoff must fire — the
// test counts the picks whose key reached the floor with later nodes left
// unscanned and requires some per policy.
func TestFusedPickMatchesPick(t *testing.T) {
	fleets := []struct {
		name      string
		cluster   Cluster
		w         Workload
		wantFloor bool
	}{
		{"3cpu+5gpu", Cluster{Nodes: 3, GPUs: 5},
			MustSynthetic(30, 11, []string{nn.LSTM, nn.DCGAN, nn.ResNet50}, 2e6).
				Merge(MustSyntheticInference(12, 13, []string{nn.DCGAN}, 3e6, 50e6)), false},
		{"8cpu+40gpu", Cluster{Nodes: 8, GPUs: 40},
			MustSynthetic(160, 17, []string{nn.LSTM, nn.DCGAN, nn.ResNet50}, 1e5).
				Merge(MustSyntheticInference(80, 19, []string{nn.LSTM, nn.DCGAN}, 2e5, 50e6)), true},
	}
	for _, fl := range fleets {
		for _, policy := range Policies() {
			e, err := NewEngine(fl.cluster, Options{Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			ref := referencePolicy(policy)
			floorHits := 0
			for i, sp := range fl.w {
				ji, err := e.Admit(sp)
				if err != nil {
					t.Fatalf("%s %s job %d: %v", fl.name, policy, i, err)
				}
				// Advance the clock so picks see waves mid-flight, drained
				// nodes and staged queues, not just an empty fleet.
				if _, err := e.AdvanceTo(sp.ArrivalNs); err != nil {
					t.Fatalf("%s %s advance %d: %v", fl.name, policy, i, err)
				}
				views := referenceViews(e, ji, sp.ArrivalNs)
				want := ref.Pick(e.job(ji).spec, sp.ArrivalNs, views)
				got := e.fusedPick(ji, sp.ArrivalNs)
				if got != want {
					t.Fatalf("%s %s job %d at %v: fusedPick=%d, Views→Pick=%d", fl.name, policy, i, sp.ArrivalNs, got, want)
				}
				if got < len(views)-1 && atFloor(policy, views, sp.ArrivalNs, got) {
					floorHits++
				}
				if err := e.place(ji, got, sp.ArrivalNs); err != nil {
					t.Fatalf("%s %s place %d: %v", fl.name, policy, i, err)
				}
			}
			if fl.wantFloor && floorHits == 0 {
				t.Errorf("%s %s: no pick reached the floor before the last node; the cutoff never fired", fl.name, policy)
			}
		}
	}
}

// atFloor reports whether the reference policy's pick among views carries
// a key equal to the policy's floor — the condition under which the fused
// scan stops at the pick without reading the nodes after it.
func atFloor(policy string, views []NodeView, nowNs float64, pick int) bool {
	v := views[pick]
	switch policy {
	case policySpread:
		return v.Load() == 0
	case policyBinPack:
		maxCap := 0
		for _, u := range views {
			maxCap = max(maxCap, u.Capacity)
		}
		return v.Load() < v.Capacity && v.Load() == maxCap-1
	case policyModelAware:
		floor := math.Inf(1)
		for _, u := range views {
			floor = math.Min(floor, nowNs+u.JobWorkNs)
		}
		return v.Load() < v.Capacity && ModelAware{}.estimate(v, nowNs) == floor
	}
	return false
}

// TestFusedPickFloorEdges pins the floor cutoff on hand-built fleet state,
// each case checked against the reference policy and an expected node:
// the scan must not stop at a runtime's own floor when a later node's
// runtime has a lower one (binpack: only at the largest capacity's), must
// run to the end of a full fleet where only the fallback applies, and must
// stay exact at +Inf and zero work.
func TestFusedPickFloorEdges(t *testing.T) {
	knl, p100 := hw.NewKNL(), gpu.NewP100()
	// Two runtimes interleaved: nodes 0 and 2 share the CPU runtime, 1 and
	// 3 the GPU runtime.
	fleet := Cluster{NodeList: []Node{{CPU: knl}, {GPU: p100}, {CPU: knl}, {GPU: p100}}}
	const now = 1e6
	inf := math.Inf(1)
	cases := []struct {
		name   string
		policy string
		work   []float64 // per runtime: CPU, GPU
		busy   []int     // nodes whose wave drains after now
		queued []int     // per-node staged job count, nil for none
		full   bool      // every node at capacity, the last least committed
		want   int
	}{
		{"lower floor later in index order", policyModelAware, []float64{5e6, 2e6}, nil, nil, false, 1},
		{"lower floor behind busy nodes", policyModelAware, []float64{5e6, 2e6}, []int{1}, nil, false, 3},
		{"first runtime's floor wins", policyModelAware, []float64{2e6, 5e6}, nil, nil, false, 0},
		{"full fleet model-aware", policyModelAware, []float64{2e6, 2e6}, nil, nil, true, 3},
		{"full fleet binpack", policyBinPack, nil, nil, nil, true, 3},
		{"full fleet spread", policySpread, nil, nil, nil, true, 3},
		{"+Inf work everywhere", policyModelAware, []float64{inf, inf}, nil, nil, false, 0},
		{"+Inf work on one runtime", policyModelAware, []float64{inf, 3e6}, nil, nil, false, 1},
		{"zero work", policyModelAware, []float64{0, 0}, []int{0}, nil, false, 1},
		{"zero work on the later runtime", policyModelAware, []float64{1e6, 0}, []int{1}, nil, false, 3},
		{"spread stops at the first empty node", policySpread, nil, []int{0}, nil, false, 1},
		{"binpack passes a smaller runtime's floor", policyBinPack, nil, nil, []int{0, 7, 10, 0}, false, 2},
		{"binpack stops only at max capacity - 1", policyBinPack, nil, nil, []int{66, 0, 67, 0}, false, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(fleet, Options{Policy: tc.policy})
			if err != nil {
				t.Fatal(err)
			}
			ji, err := e.Admit(JobSpec{Model: nn.DCGAN})
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range tc.busy {
				e.nodes[n].queue = []int{ji}
				e.nodes[n].freeNs = 2 * now
			}
			for n, q := range tc.queued {
				e.nodes[n].queue = make([]int, q)
			}
			if tc.full {
				for i, ns := range e.nodes {
					// Load falls with the index, so the fallback is the
					// last node and the scan has to reach it.
					ns.queue = make([]int, e.rtCap[e.rtIdx[i]]+len(e.nodes)-i)
					ns.queuedWorkNs = float64(len(ns.queue)) * 1e6
				}
			}
			views := referenceViews(e, ji, now)
			work := e.jobWorkPerRuntime(ji)
			if tc.work != nil {
				copy(work, tc.work)
				for i := range views {
					views[i].JobWorkNs = work[e.rtIdx[i]]
				}
			}
			if want := referencePolicy(tc.policy).Pick(e.job(ji).spec, now, views); want != tc.want {
				t.Fatalf("reference picked node %d, case expects %d", want, tc.want)
			}
			acc := pickAcc{best: -1, fall: -1}
			switch tc.policy {
			case policyModelAware:
				e.scanModelAware(now, work, &acc)
			case policyBinPack:
				e.scanBinPack(now, &acc)
			case policySpread:
				e.scanSpread(now, &acc)
			}
			got := acc.best
			if got < 0 {
				got = acc.fall
			}
			if got != tc.want {
				t.Errorf("fused scan picked node %d, want %d", got, tc.want)
			}
		})
	}
}
