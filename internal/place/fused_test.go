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
// unscanned and requires some per policy, and under model-aware some picks
// the quiescent-node index answered. The third stream's arrivals land
// exactly on pending node events, advanced under Arrive's tie rule, so
// the index's pending-event guard must hand some picks to the scan. After
// every engine event the index must hold exactly the quiescent nodes.
func TestFusedPickMatchesPick(t *testing.T) {
	fleets := []struct {
		name      string
		cluster   Cluster
		w         Workload
		onEvents  bool // arrivals move to the earliest pending event
		wantFloor bool
		wantIndex bool
	}{
		{"3cpu+5gpu", Cluster{Nodes: 3, GPUs: 5},
			MustSynthetic(30, 11, []string{nn.LSTM, nn.DCGAN, nn.ResNet50}, 2e6).
				Merge(MustSyntheticInference(12, 13, []string{nn.DCGAN}, 3e6, 50e6)), false, false, false},
		{"8cpu+40gpu", Cluster{Nodes: 8, GPUs: 40},
			MustSynthetic(160, 17, []string{nn.LSTM, nn.DCGAN, nn.ResNet50}, 1e5).
				Merge(MustSyntheticInference(80, 19, []string{nn.LSTM, nn.DCGAN}, 2e5, 50e6)), false, true, true},
		{"4cpu+12gpu on events", Cluster{Nodes: 4, GPUs: 12},
			MustSynthetic(60, 23, []string{nn.LSTM, nn.DCGAN, nn.ResNet50}, 1e6), true, false, false},
	}
	for _, fl := range fleets {
		for _, policy := range Policies() {
			e, err := NewEngine(fl.cluster, Options{Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			checkIdleIndex(t, e)
			ref := referencePolicy(policy)
			floorHits, indexPicks, pendingScans := 0, 0, 0
			for i, sp := range fl.w {
				if fl.onEvents {
					if _, at := e.peek(); !math.IsInf(at, 1) {
						sp.ArrivalNs = max(at, e.arrivalNs)
					}
				}
				ji, err := e.Admit(sp)
				if err != nil {
					t.Fatalf("%s %s job %d: %v", fl.name, policy, i, err)
				}
				// Advance the clock so picks see waves mid-flight, drained
				// nodes and staged queues, not just an empty fleet; on
				// events, only past the events before the arrival, as
				// Arrive does.
				for {
					n, at := e.peek()
					if n < 0 || at > sp.ArrivalNs || fl.onEvents && at == sp.ArrivalNs {
						break
					}
					if err := e.step(); err != nil {
						t.Fatalf("%s %s advance %d: %v", fl.name, policy, i, err)
					}
					checkIdleIndex(t, e)
				}
				views := referenceViews(e, ji, sp.ArrivalNs)
				want := ref.Pick(recSpec(e.job(ji)), sp.ArrivalNs, views)
				got := e.fusedPick(ji, sp.ArrivalNs)
				if got != want {
					t.Fatalf("%s %s job %d at %v: fusedPick=%d, Views→Pick=%d", fl.name, policy, i, sp.ArrivalNs, got, want)
				}
				if got < len(views)-1 && atFloor(policy, views, sp.ArrivalNs, got) {
					floorHits++
				}
				if policy == policyModelAware {
					if n := indexPick(e, ji, sp.ArrivalNs); n >= 0 {
						indexPicks++
					} else if _, at := e.peek(); at <= sp.ArrivalNs {
						pendingScans++
					}
				}
				if err := e.place(ji, got, sp.ArrivalNs); err != nil {
					t.Fatalf("%s %s place %d: %v", fl.name, policy, i, err)
				}
				checkIdleIndex(t, e)
			}
			if fl.wantFloor && floorHits == 0 {
				t.Errorf("%s %s: no pick reached the floor before the last node; the cutoff never fired", fl.name, policy)
			}
			if policy != policyModelAware {
				continue
			}
			if fl.wantIndex && indexPicks == 0 {
				t.Errorf("%s: the quiescent-node index answered no pick", fl.name)
			}
			if fl.onEvents && pendingScans == 0 {
				t.Errorf("%s: no arrival met a pending node event; the guard was never exercised", fl.name)
			}
			t.Logf("%s: %d index picks, %d pending-event scans of %d", fl.name, indexPicks, pendingScans, len(fl.w))
		}
	}
}

// recSpec rebuilds the admitted spec a job record holds: the outcome's
// echo fields plus the record's priority and weight.
func recSpec(r *jobRec) JobSpec {
	p := &r.out
	return JobSpec{
		Name: p.Name, Model: p.Model, ArrivalNs: p.ArrivalNs,
		Priority: r.priority, Weight: r.weight, DeadlineNs: p.DeadlineNs,
		Steps: p.Steps, Class: p.Class, SLONs: p.SLONs,
	}
}

// indexPick is what the quiescent-node index answers for admitted job ji
// arriving at nowNs: its floor node, or -1 when the pick falls to the scan.
func indexPick(e *Engine, ji int, nowNs float64) int {
	work := e.jobWorkPerRuntime(ji)
	floor := math.Inf(1)
	for _, w := range work {
		floor = min(floor, nowNs+w)
	}
	return e.floorNode(nowNs, work, floor)
}

// checkIdleIndex fails t unless e's quiescent-node index holds exactly the
// nodes with no wave in flight and nothing staged, each under its own
// runtime, and no bit past the last node.
func checkIdleIndex(t *testing.T, e *Engine) {
	t.Helper()
	for k := range e.uniqueRts {
		for i := 0; i < e.idle.words*64; i++ {
			got := e.idle.bits[k*e.idle.words+i>>6]>>(i&63)&1 == 1
			want := i < len(e.nodes) && e.rtIdx[i] == k &&
				e.nodes[i].wave == nil && len(e.nodes[i].queue) == 0
			if got != want {
				t.Fatalf("idle index: runtime %d node %d marked %v, want %v", k, i, got, want)
			}
		}
	}
}

// pokeNode applies a hand-built change to node n's state, then re-indexes
// the node in the event heap and the quiescent-node index, as every engine
// change to a node does.
func pokeNode(e *Engine, n int, f func(ns *nodeState)) {
	f(e.nodes[n])
	e.push(n)
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
				pokeNode(e, n, func(ns *nodeState) {
					ns.queue = []int{ji}
					ns.freeNs = 2 * now
				})
			}
			for n, q := range tc.queued {
				pokeNode(e, n, func(ns *nodeState) { ns.queue = make([]int, q) })
			}
			if tc.full {
				for i := range e.nodes {
					// Load falls with the index, so the fallback is the
					// last node and the scan has to reach it.
					pokeNode(e, i, func(ns *nodeState) {
						ns.queue = make([]int, e.rtCap[e.rtIdx[i]]+len(e.nodes)-i)
						ns.queuedWorkNs = float64(len(ns.queue)) * 1e6
					})
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
			if want := referencePolicy(tc.policy).Pick(recSpec(e.job(ji)), now, views); want != tc.want {
				t.Fatalf("reference picked node %d, case expects %d", want, tc.want)
			}
			acc := pickAcc{best: -1, fall: -1}
			switch tc.policy {
			case policyModelAware:
				e.scanModelAware(now, work, -1, 0, &acc)
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

// TestFloorNodeGuards pins when the quiescent-node index answers an
// arrival's model-aware pick and when it hands the pick to the scan, on
// hand-built fleet state: each case is checked against the reference
// policy, an expected node, and whether floorNode answered. Every declined
// case is one where the index's node is wrong — the lowest quiescent node
// of the floor runtime is not where the scan stops.
func TestFloorNodeGuards(t *testing.T) {
	knl, p100 := hw.NewKNL(), gpu.NewP100()
	// Nodes 0 and 2 share the CPU runtime, 1 and 3 the GPU runtime.
	fleet := Cluster{NodeList: []Node{{CPU: knl}, {GPU: p100}, {CPU: knl}, {GPU: p100}}}
	const now = 1e6
	cases := []struct {
		name      string
		work      []float64 // per runtime: CPU, GPU
		alpha     []float64 // per-runtime interference override, nil for none
		queued    []int     // nodes with one staged job, free since 0
		drained   []int     // nodes whose one-job wave ends and drains at now
		late      []int     // quiescent nodes free only after now
		want      int
		wantIndex bool
	}{
		{"the index finds the floor node", []float64{5e6, 2e6}, nil, []int{1}, nil, nil, 3, true},
		{"a wave draining at the arrival is an empty node", []float64{2e6, 2e6}, nil, nil, []int{0}, nil, 0, false},
		{"alpha 0: a co-runner costs nothing", []float64{2e6, 2e6}, []float64{0, 0}, []int{0}, nil, nil, 0, false},
		{"a co-runner's cost below an ulp", []float64{1e-12, 1e-12}, nil, []int{0}, nil, nil, 0, false},
		{"the floor node frees after now", []float64{2e6, 5e6}, nil, nil, nil, []int{0}, 2, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(fleet, Options{Policy: policyModelAware})
			if err != nil {
				t.Fatal(err)
			}
			ji, err := e.Admit(JobSpec{Model: nn.DCGAN})
			if err != nil {
				t.Fatal(err)
			}
			if tc.alpha != nil {
				copy(e.rtAlpha, tc.alpha)
			}
			for _, n := range tc.queued {
				pokeNode(e, n, func(ns *nodeState) { ns.queue = []int{ji} })
			}
			for _, n := range tc.drained {
				pokeNode(e, n, func(ns *nodeState) {
					ns.wave = &waveState{active: []int{ji}, roundEndNs: now, drainNs: now}
				})
			}
			for _, n := range tc.late {
				pokeNode(e, n, func(ns *nodeState) { ns.freeNs = now + 1 })
			}
			views := referenceViews(e, ji, now)
			work := e.jobWorkPerRuntime(ji)
			copy(work, tc.work)
			floor := math.Inf(1)
			for i := range views {
				views[i].JobWorkNs = work[e.rtIdx[i]]
				floor = min(floor, now+views[i].JobWorkNs)
			}
			if want := (ModelAware{}).Pick(recSpec(e.job(ji)), now, views); want != tc.want {
				t.Fatalf("reference picked node %d, case expects %d", want, tc.want)
			}
			if n := e.floorNode(now, work, floor); (n >= 0) != tc.wantIndex || n >= 0 && n != tc.want {
				t.Errorf("floorNode = %d, want the index to answer %v with node %d", n, tc.wantIndex, tc.want)
			}
			acc := pickAcc{best: -1, fall: -1}
			e.scanModelAware(now, work, -1, 0, &acc)
			if got := acc.pick(); got != tc.want {
				t.Errorf("model-aware scan picked node %d, want %d", got, tc.want)
			}
		})
	}
}

// TestRestartPickMatchesModelAware: a checkpointed job restarts where the
// reference model-aware policy, priced at its remaining steps with the
// restart transfer on every node but the source, would put it. Preemptive
// engines over a mixed fleet, one per placement policy, run a multi-step
// stream; at every cut wave's round end the test records the engine's
// restart nodes, rewinds the restarts' staging, and replays them one at a
// time against ModelAware.Pick. The replay restores the engine's state
// exactly, so each run must still render the report of an undisturbed run.
func TestRestartPickMatchesModelAware(t *testing.T) {
	w, err := SyntheticSteps(40, 5, []string{nn.LSTM, nn.DCGAN, nn.ResNet50}, 2e6, 6)
	if err != nil {
		t.Fatal(err)
	}
	c := Cluster{Nodes: 2, GPUs: 3}
	checked, moved := 0, 0
	for _, policy := range Policies() {
		opts := Options{Policy: policy, Preempt: "all"}
		e, err := NewEngine(c, opts)
		if err != nil {
			t.Fatal(err)
		}
		step := func() {
			src, now := e.peek()
			cut := e.nodes[src].wave
			if cut == nil || !cut.cut {
				if err := e.step(); err != nil {
					t.Fatal(err)
				}
				return
			}
			var remain []int
			for _, ji := range cut.active {
				if r := e.job(ji); r.done+1 < r.steps {
					remain = append(remain, ji)
				}
			}
			// The round's completions leave every queue alone, so the
			// queues before the step are what the first restart sees.
			saved := make([]nodeState, len(e.nodes))
			for i, ns := range e.nodes {
				saved[i] = *ns
			}
			fleetJobs, fleetWorkNs := e.queuedJobs, e.queuedWorkNs
			if err := e.step(); err != nil {
				t.Fatal(err)
			}
			got := make([]int, len(remain))
			for k, ji := range remain {
				got[k] = e.job(ji).out.Node
			}
			for i := range e.nodes {
				pokeNode(e, i, func(ns *nodeState) {
					ns.queue = ns.queue[:len(saved[i].queue)]
					ns.queuedWorkNs, ns.minReadyNs = saved[i].queuedWorkNs, saved[i].minReadyNs
				})
			}
			e.queuedJobs, e.queuedWorkNs = fleetJobs, fleetWorkNs
			for k, ji := range remain {
				r := e.job(ji)
				if want := (ModelAware{}).Pick(recSpec(r), now, restartViews(e, ji, src, now)); got[k] != want {
					t.Fatalf("%s: job %s cut from node %d at %v restarted on node %d, reference picks %d",
						policy, r.out.Name, src, now, got[k], want)
				}
				if got[k] != src {
					moved++
				}
				checked++
				e.stage(ji, got[k], r.readyNs)
			}
		}
		for _, sp := range w {
			for {
				if n, at := e.peek(); n < 0 || at >= sp.ArrivalNs {
					break
				}
				step()
			}
			ji, err := e.Admit(sp)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.PlaceAuto(ji, sp.ArrivalNs); err != nil {
				t.Fatal(err)
			}
		}
		for e.Completed() < e.n {
			step()
		}
		plain, err := PlaceJobs(w, c, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := e.Finish().Render(), plain.Render(); got != want {
			t.Errorf("%s: checked run diverged from a plain run:\n%s\nwant:\n%s", policy, got, want)
		}
	}
	if moved == 0 || moved == checked {
		t.Fatalf("%d restarts checked, %d migrated: the streams must exercise both staying and moving", checked, moved)
	}
	t.Logf("%d restarts checked, %d migrated", checked, moved)
}

// restartCase is hand-built fleet state for one restart pick, checked
// against the reference policy and an expected node.
type restartCase struct {
	name    string
	src     int
	work    []float64 // remaining work per runtime: CPU, GPU
	delayNs float64
	busy    []int // nodes free only at 100 × now
	corun   []int // nodes with two staged jobs
	full    []int // nodes staged to capacity
	drained []int // nodes whose full wave drains exactly at now
	want    int
}

// TestRestartPrefersFastestFinish: the restart scan picks the node with the
// earliest predicted finish, and the transfer delays every node but the
// source.
func TestRestartPrefersFastestFinish(t *testing.T) {
	runRestartCases(t, []restartCase{
		{"idle remote beats the busy source", 0, []float64{5e6, 5e6}, 1e6, []int{0}, nil, nil, nil, 1},
		{"faster hardware beats the idle source", 0, []float64{5e6, 1e6}, 1e6, nil, nil, nil, nil, 1},
		{"transfer outweighs faster hardware", 0, []float64{5e6, 1e6}, 10e6, nil, nil, nil, nil, 0},
		{"transfer delays every node but the source", 2, []float64{2e6, 2e6}, 1e6, nil, nil, nil, nil, 2},
		// Two co-runners inflate the source's 2e6 by 2 × 0.22: more than
		// the 0.5e6 transfer to the idle CPU node 2.
		{"co-runners inflate the source", 0, []float64{2e6, 5e6}, 0.5e6, nil, []int{0}, nil, nil, 2},
	})
}

// TestRestartCapacityAndTies: full nodes are only a fallback, ties go to the
// lower index, and a wave that drains exactly at the checkpoint instant is
// not a co-runner (the arrival rule, nodeLoadFree).
func TestRestartCapacityAndTies(t *testing.T) {
	runRestartCases(t, []restartCase{
		{"zero transfer ties go to the lower index", 2, []float64{2e6, 2e6}, 0, nil, nil, nil, nil, 0},
		{"remote ties go to the lower index", 0, []float64{2e6, 2e6}, 1e6, []int{0}, nil, nil, nil, 1},
		{"a full source is only a fallback", 0, []float64{1e6, 5e6}, 1e6, []int{1, 2, 3}, nil, []int{0}, nil, 2},
		{"every node full: the least-bad fallback", 1, []float64{1e6, 1e6}, 50e6, nil, nil, []int{0, 1, 2, 3}, nil, 1},
		{"a wave draining at the checkpoint is no co-runner", 0, []float64{1e6, 1e6}, 1e6, []int{2, 3}, nil, []int{0}, []int{1}, 1},
	})
}

func runRestartCases(t *testing.T, cases []restartCase) {
	t.Helper()
	knl, p100 := hw.NewKNL(), gpu.NewP100()
	// Nodes 0 and 2 share the CPU runtime, 1 and 3 the GPU runtime.
	fleet := Cluster{NodeList: []Node{{CPU: knl}, {GPU: p100}, {CPU: knl}, {GPU: p100}}}
	const now = 1e6
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(fleet, Options{Policy: policyModelAware, Preempt: "all"})
			if err != nil {
				t.Fatal(err)
			}
			ji, err := e.Admit(JobSpec{Model: nn.DCGAN, Steps: 4})
			if err != nil {
				t.Fatal(err)
			}
			e.job(ji).done = 1
			for _, n := range tc.busy {
				pokeNode(e, n, func(ns *nodeState) { ns.freeNs = 100 * now })
			}
			for _, n := range tc.corun {
				pokeNode(e, n, func(ns *nodeState) { ns.queue = make([]int, 2) })
			}
			for _, n := range tc.full {
				pokeNode(e, n, func(ns *nodeState) {
					ns.queue = make([]int, e.rtCap[e.rtIdx[n]])
					ns.queuedWorkNs = float64(len(ns.queue)) * 1e6
				})
			}
			for _, n := range tc.drained {
				pokeNode(e, n, func(ns *nodeState) {
					ns.wave = &waveState{
						active: make([]int, e.rtCap[e.rtIdx[n]]), roundEndNs: now, drainNs: now,
					}
				})
			}
			views := referenceViews(e, ji, now)
			work := e.jobWorkPerRuntime(ji)
			copy(work, tc.work)
			for i := range views {
				views[i].JobWorkNs = work[e.rtIdx[i]]
				if i != tc.src {
					views[i].TransferNs = tc.delayNs
				}
			}
			if want := (ModelAware{}).Pick(recSpec(e.job(ji)), now, views); want != tc.want {
				t.Fatalf("reference picked node %d, case expects %d", want, tc.want)
			}
			acc := pickAcc{best: -1, fall: -1}
			e.scanModelAware(now, work, tc.src, tc.delayNs, &acc)
			if got := acc.pick(); got != tc.want {
				t.Errorf("restart scan picked node %d, want %d", got, tc.want)
			}
		})
	}
}

// TestRestartNodeReadyTime: restartNode keeps a checkpoint on its source
// node, ready at once, while the source frees sooner than the restart
// transfer would land the job on an idle identical node; past that, the job
// moves to the lowest-index idle node and is ready when the transfer lands.
func TestRestartNodeReadyTime(t *testing.T) {
	const now = 1e6
	for _, tc := range []struct {
		name      string
		busyDelay float64 // the source frees at now + busyDelay × the restart delay
		wantNode  int
		wantDelay float64 // readyNs - now, in restart delays
	}{
		{"the source frees before the transfer lands", 0.5, 2, 0},
		{"the source frees after the transfer lands", 2, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(Cluster{Nodes: 3}, Options{Preempt: "all"})
			if err != nil {
				t.Fatal(err)
			}
			ji, err := e.Admit(JobSpec{Model: nn.DCGAN, Steps: 4})
			if err != nil {
				t.Fatal(err)
			}
			e.job(ji).done = 1
			for k, w := range e.jobWorkPerRuntime(ji) {
				if want := 3 * e.uniqueRts[k].SoloWorkNs(nn.DCGAN); w != want {
					t.Fatalf("remaining work %v with 1 of 4 steps done, want %v", w, want)
				}
			}
			mi := e.info(nn.DCGAN)
			delay := e.ic.TransferNs(mi.paramBytes) + mi.xferNs
			pokeNode(e, 2, func(ns *nodeState) { ns.freeNs = now + tc.busyDelay*delay })
			n, ready := e.restartNode(ji, 2, now)
			if n != tc.wantNode || ready != now+tc.wantDelay*delay {
				t.Errorf("restarted on node %d ready at %v, want node %d at %v",
					n, ready, tc.wantNode, now+tc.wantDelay*delay)
			}
		})
	}
}
