package place

import (
	"math/rand"
	"testing"
	"testing/quick"

	"opsched/internal/gpu"
	"opsched/internal/hw"
	"opsched/internal/nn"
)

// tinyMachine is a 4-core node (KNL constants otherwise): small enough that
// random workloads actually hit the one-job-per-core wave capacity.
func tinyMachine() *hw.Machine {
	m := hw.NewKNL()
	m.Cores = 4
	m.CoresPerTile = 2
	return m
}

// TestPlacementCapacityProperty is the scheduling-core placement invariant
// under seeded random inputs: whatever the workload, cluster size and
// policy, no co-run wave ever holds more jobs than the node has physical
// cores (every co-run job needs at least one core), every job lands on a
// real node, queueing is non-negative, and co-running never beats solo.
func TestPlacementCapacityProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("placement property runs full co-scheduled waves")
	}
	m := tinyMachine()
	prop := func(seed uint16, nJobs, nNodes, polIdx uint8) bool {
		jobs := 1 + int(nJobs)%7
		nodes := 1 + int(nNodes)%3
		policy := Policies()[int(polIdx)%len(Policies())]
		w := MustSynthetic(jobs, uint64(seed)+1, []string{nn.LSTM}, 5e5)
		res, err := PlaceJobs(w, Cluster{Nodes: nodes, Machine: m}, Options{Policy: policy})
		if err != nil {
			t.Logf("seed=%d jobs=%d nodes=%d policy=%s: %v", seed, jobs, nodes, policy, err)
			return false
		}
		waveJobs := map[[2]int]int{}
		for i, p := range res.Jobs {
			if p.Node < 0 || p.Node >= nodes {
				t.Logf("job %d on node %d of %d", i, p.Node, nodes)
				return false
			}
			if p.QueueNs < 0 || p.StartNs < p.ArrivalNs {
				t.Logf("job %d queued %v, start %v, arrival %v", i, p.QueueNs, p.StartNs, p.ArrivalNs)
				return false
			}
			if p.CoRunSlowdown < 1-1e-9 || p.Slowdown < 1-1e-9 {
				t.Logf("job %d slowdown %.4f (corun %.4f) < 1", i, p.Slowdown, p.CoRunSlowdown)
				return false
			}
			waveJobs[[2]int{p.Node, p.Wave}]++
		}
		for key, count := range waveJobs {
			if count > m.Cores {
				t.Logf("node %d wave %d co-runs %d jobs on %d cores", key[0], key[1], count, m.Cores)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 6, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestGPUWaveCapacityProperty: whatever the workload and policy, a GPU
// node's co-run wave never holds more jobs than the device has streams.
// The device is squeezed to two streams so random streams actually hit the
// ceiling.
func TestGPUWaveCapacityProperty(t *testing.T) {
	d := gpu.NewP100()
	d.Streams = 2
	prop := func(seed uint16, nJobs, nNodes, polIdx uint8) bool {
		jobs := 1 + int(nJobs)%9
		nodes := 1 + int(nNodes)%2
		policy := Policies()[int(polIdx)%len(Policies())]
		w := MustSynthetic(jobs, uint64(seed)+1, []string{nn.LSTM, nn.DCGAN}, 5e5)
		res, err := PlaceJobs(w, Cluster{GPUs: nodes, GPU: d}, Options{Policy: policy})
		if err != nil {
			t.Logf("seed=%d jobs=%d gpus=%d policy=%s: %v", seed, jobs, nodes, policy, err)
			return false
		}
		waveJobs := map[[2]int]int{}
		for i, p := range res.Jobs {
			if p.Kind != KindGPU {
				t.Logf("job %d on kind %q in a GPU-only fleet", i, p.Kind)
				return false
			}
			if p.CoRunSlowdown < 1-1e-9 || p.Slowdown < 1-1e-9 {
				t.Logf("job %d slowdown %.4f (corun %.4f) < 1", i, p.Slowdown, p.CoRunSlowdown)
				return false
			}
			waveJobs[[2]int{p.Node, p.Wave}]++
		}
		for key, count := range waveJobs {
			if count > d.StreamCapacity() {
				t.Logf("node %d wave %d co-runs %d jobs on %d streams", key[0], key[1], count, d.StreamCapacity())
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestModelAwareHeteroPredictionProperty: the model-aware policy's routing
// decision on a heterogeneous fleet never predicts a finish time worse
// than the best homogeneous alternative. The load-bearing fact is Pick's
// behaviour, not an algebraic identity over the estimate function: over
// random views (re-indexed per subset, so subset picks are genuine), Pick
// must select a minimum-estimate node among those with spare wave
// capacity, and therefore — whenever every subset has spare capacity, the
// regime where the fleets are genuinely comparable — the estimate of the node the
// hetero fleet picks is at most the estimate of the node either
// homogeneous subset would pick. A Pick that mis-ranks, ignores capacity,
// or reads the wrong view fields fails this.
func TestModelAwareHeteroPredictionProperty(t *testing.T) {
	pol := ModelAware{}
	// pickEst re-indexes the views (a policy contract: Index mirrors
	// slice position), picks, and returns the picked node's estimate and
	// whether it had spare capacity.
	pickEst := func(views []NodeView, nowNs float64) (float64, bool) {
		vs := make([]NodeView, len(views))
		copy(vs, views)
		for i := range vs {
			vs[i].Index = i
		}
		picked := pol.Pick(JobSpec{}, nowNs, vs)
		v := vs[picked]
		// Pick must never prefer a node whose estimate another
		// spare-capacity node beats.
		for _, o := range vs {
			if o.Load() < o.Capacity && pol.estimate(o, nowNs) < pol.estimate(v, nowNs)-1e-9 {
				if v.Load() < v.Capacity {
					t.Errorf("Pick chose node %d (est %v) over node %d (est %v), both under capacity",
						picked, pol.estimate(v, nowNs), o.Index, pol.estimate(o, nowNs))
				}
			}
		}
		return pol.estimate(v, nowNs), v.Load() < v.Capacity
	}
	prop := func(seed uint32, nCPU, nGPU uint8) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		cpus := 1 + int(nCPU)%4
		gpus := 1 + int(nGPU)%4
		nowNs := 1e6 * rng.Float64()
		var all, cpuViews, gpuViews []NodeView
		for i := 0; i < cpus+gpus; i++ {
			v := NodeView{
				Kind:         KindCPU,
				Capacity:     4 + rng.Intn(64),
				FreeNs:       2e6 * rng.Float64(),
				Resident:     rng.Intn(4),
				Queued:       rng.Intn(4),
				QueuedWorkNs: 5e6 * rng.Float64(),
				JobWorkNs:    1e6 + 5e7*rng.Float64(),
				Alpha:        cpuMeshAlpha,
			}
			if i >= cpus {
				v.Kind, v.Alpha, v.Capacity = KindGPU, 0.09, 2+rng.Intn(8)
			}
			all = append(all, v)
			if v.Kind == KindCPU {
				cpuViews = append(cpuViews, v)
			} else {
				gpuViews = append(gpuViews, v)
			}
		}
		hetero, heteroSpare := pickEst(all, nowNs)
		cpuEst, cpuSpare := pickEst(cpuViews, nowNs)
		gpuEst, gpuSpare := pickEst(gpuViews, nowNs)
		if heteroSpare && cpuSpare && gpuSpare {
			if hetero > cpuEst+1e-9 || hetero > gpuEst+1e-9 {
				t.Logf("seed=%d: hetero pick predicts %v, worse than a homogeneous pick (%v cpu / %v gpu)",
					seed, hetero, cpuEst, gpuEst)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(19))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestHeteroBeatsHomogeneousEndToEnd pins the realized (not just
// predicted) routing win on a deterministic stream: one KNL + one P100
// under model-aware achieve a makespan no worse than, and a mean JCT
// strictly better than, the same policy forced onto two nodes of either
// kind — the in-repo version of the committed EXPERIMENTS.md run.
func TestHeteroBeatsHomogeneousEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six full placements")
	}
	w := MustSynthetic(6, 1, []string{nn.LSTM, nn.DCGAN}, 2e6)
	run := func(c Cluster) *Result {
		res, err := PlaceJobs(w, c, Options{Policy: "model-aware"})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	hetero := run(Cluster{Nodes: 1, GPUs: 1})
	cpu := run(Cluster{Nodes: 2})
	gpuOnly := run(Cluster{GPUs: 2})
	if hetero.MakespanNs > cpu.MakespanNs || hetero.MakespanNs > gpuOnly.MakespanNs {
		t.Errorf("hetero makespan %.2f ms worse than homogeneous (%.2f cpu / %.2f gpu)",
			hetero.MakespanNs/1e6, cpu.MakespanNs/1e6, gpuOnly.MakespanNs/1e6)
	}
	if hetero.MeanJCTNs >= cpu.MeanJCTNs || hetero.MeanJCTNs >= gpuOnly.MeanJCTNs {
		t.Errorf("hetero mean JCT %.2f ms not strictly better than homogeneous (%.2f cpu / %.2f gpu)",
			hetero.MeanJCTNs/1e6, cpu.MeanJCTNs/1e6, gpuOnly.MeanJCTNs/1e6)
	}
}

// TestHeteroDeterminismProperty: heterogeneous placements are reproducible
// — the same seeded workload on the same mixed fleet renders byte-identical
// reports run after run (the sweep-level tests additionally pin parallel 1
// vs 8).
func TestHeteroDeterminismProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("hetero determinism runs full placement twice per seed")
	}
	prop := func(seed uint16, polIdx uint8) bool {
		policy := Policies()[int(polIdx)%len(Policies())]
		w := MustSynthetic(5, uint64(seed)+1, []string{nn.LSTM, nn.DCGAN}, 1e6)
		c := Cluster{Nodes: 1, GPUs: 1}
		a, err := PlaceJobs(w, c, Options{Policy: policy})
		if err != nil {
			t.Logf("seed=%d policy=%s: %v", seed, policy, err)
			return false
		}
		b, err := PlaceJobs(w, c, Options{Policy: policy})
		if err != nil {
			t.Logf("seed=%d policy=%s rerun: %v", seed, policy, err)
			return false
		}
		if a.Render() != b.Render() {
			t.Logf("seed=%d policy=%s: renders differ:\n%s\nvs\n%s", seed, policy, a.Render(), b.Render())
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 4, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestTransferNsProperties: under seeded random payloads the staging cost
// is at least the message latency and monotone in the payload.
func TestTransferNsProperties(t *testing.T) {
	ic := NewAries()
	transfer := func(p1, p2 uint32) bool {
		lo, hi := float64(p1), float64(p2)
		if lo > hi {
			lo, hi = hi, lo
		}
		a, b := ic.TransferNs(lo), ic.TransferNs(hi)
		return a >= ic.LatencyNs && a <= b
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(42))}
	if err := quick.Check(transfer, cfg); err != nil {
		t.Error(err)
	}
}
