package sweep

import (
	"context"
	"math"
	"testing"

	"opsched/internal/nn"
	"opsched/internal/place"
)

func clusterGrid() ClusterGrid {
	return ClusterGrid{
		Workloads: []NamedWorkload{
			{Name: "lstm4", Jobs: place.MustSynthetic(4, 3, []string{nn.LSTM}, 1e6)},
		},
		Sizes: []int{1, 2},
	}
}

// TestClusterGridCells: enumeration is workload-major, policy-minor,
// size-then-GPU-count-innermost, and the empty grid covers the default
// workload under every policy at sizes 1/2/4 with no GPU nodes.
func TestClusterGridCells(t *testing.T) {
	cells := clusterGrid().Cells()
	if len(cells) != 3*2 {
		t.Fatalf("got %d cells, want 6", len(cells))
	}
	if cells[0].Workload != "lstm4" || cells[0].Policy != "binpack" || cells[0].Nodes != 1 || cells[0].GPUs != 0 {
		t.Errorf("first cell is %+v", cells[0])
	}
	if cells[1].Nodes != 2 || cells[2].Policy != "spread" {
		t.Errorf("cells enumerate %+v, %+v", cells[1], cells[2])
	}
	if def := (ClusterGrid{}).Cells(); len(def) != 3*3 {
		t.Errorf("default grid has %d cells, want 9", len(def))
	}

	// The node-mix axis crosses CPU counts with GPU counts, GPU count
	// innermost.
	g := clusterGrid()
	g.GPUs = []int{0, 1}
	mixed := g.Cells()
	if len(mixed) != 3*2*2 {
		t.Fatalf("mixed grid has %d cells, want 12", len(mixed))
	}
	if mixed[0].GPUs != 0 || mixed[1].GPUs != 1 || mixed[1].Nodes != 1 || mixed[2].Nodes != 2 {
		t.Errorf("mixed cells enumerate %+v, %+v, %+v", mixed[0], mixed[1], mixed[2])
	}
}

// TestClusterGridHeteroDeterminism: heterogeneous cells — including a
// GPU-only fleet at CPU size 0 — run through the pool and render
// byte-identically at parallelism 1 and 8.
func TestClusterGridHeteroDeterminism(t *testing.T) {
	g := ClusterGrid{
		Workloads: []NamedWorkload{
			{Name: "mix5", Jobs: place.MustSynthetic(5, 3, []string{nn.LSTM, nn.DCGAN}, 1e6)},
		},
		Policies: []string{"model-aware", "spread"},
		Sizes:    []int{0, 1},
		GPUs:     []int{1},
	}
	serial, err := RunClusterGrid(context.Background(), g, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunClusterGrid(context.Background(), g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 4 || len(parallel) != 4 {
		t.Fatalf("got %d serial / %d parallel cells, want 4", len(serial), len(parallel))
	}
	for i := range serial {
		if s, p := serial[i].Result.Render(), parallel[i].Result.Render(); s != p {
			t.Errorf("hetero cell %d reports differ between serial and parallel sweeps:\n%s\nvs\n%s", i, s, p)
		}
		for _, j := range serial[i].Result.Jobs {
			if j.Slowdown < 1-1e-9 {
				t.Errorf("cell %d job %s slowdown %.4f < 1", i, j.Name, j.Slowdown)
			}
		}
	}
}

// TestClusterGridDeterminism is the cluster-sweep determinism contract:
// the same workload under any policy and size renders byte-identical
// reports whether the sweep runs serially or on eight workers, in the
// exact Cells order.
func TestClusterGridDeterminism(t *testing.T) {
	g := clusterGrid()
	serial, err := RunClusterGrid(context.Background(), g, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunClusterGrid(context.Background(), g, 8)
	if err != nil {
		t.Fatal(err)
	}
	labels := g.Cells()
	if len(serial) != len(labels) || len(parallel) != len(labels) {
		t.Fatalf("got %d serial / %d parallel cells, want %d", len(serial), len(parallel), len(labels))
	}
	for i := range labels {
		for _, c := range []ClusterCell{serial[i], parallel[i]} {
			if c.Workload != labels[i].Workload || c.Policy != labels[i].Policy || c.Nodes != labels[i].Nodes {
				t.Errorf("cell %d is %s/%s/%d, want %s/%s/%d",
					i, c.Workload, c.Policy, c.Nodes, labels[i].Workload, labels[i].Policy, labels[i].Nodes)
			}
		}
		if s, p := serial[i].Result.Render(), parallel[i].Result.Render(); s != p {
			t.Errorf("cell %d reports differ between serial and parallel sweeps:\n%s\nvs\n%s", i, s, p)
		}
	}
}

// TestClusterGridSlowdowns: every placed job in every cell reports
// slowdown >= 1 — queueing and contention can only hurt.
func TestClusterGridSlowdowns(t *testing.T) {
	cells, err := RunClusterGrid(context.Background(), clusterGrid(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		for _, j := range c.Result.Jobs {
			if j.Slowdown < 1-1e-9 {
				t.Errorf("%s/%s/n=%d: job %s slowdown %.4f < 1", c.Workload, c.Policy, c.Nodes, j.Name, j.Slowdown)
			}
		}
	}
}

// TestClusterGridBadInput: unknown policies and broken clusters fail the
// sweep with a labelled error.
func TestClusterGridBadInput(t *testing.T) {
	g := clusterGrid()
	g.Policies = []string{"nope"}
	if _, err := RunClusterGrid(context.Background(), g, 1); err == nil {
		t.Error("unknown policy accepted")
	}
	g = clusterGrid()
	g.Sizes = []int{0}
	if _, err := RunClusterGrid(context.Background(), g, 1); err == nil {
		t.Error("zero-node cluster accepted")
	}
}

// TestClusterGridPreemptAxis: the preemption axis is innermost, "off"
// maps to the run-to-completion engine, and a preemptive sweep renders
// byte-identically at parallelism 1 and 8 — property (d) of the
// preemption test plan, at the sweep level.
func TestClusterGridPreemptAxis(t *testing.T) {
	jobs, err := place.SyntheticSteps(5, 3, []string{nn.LSTM, nn.DCGAN}, 1e6, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := ClusterGrid{
		Workloads: []NamedWorkload{{Name: "steps5", Jobs: jobs}},
		Policies:  []string{"model-aware"},
		Sizes:     []int{1},
		GPUs:      []int{1},
		Preempts:  []string{"off", "priority+deadline+load"},
	}
	cells := g.Cells()
	if len(cells) != 2 || cells[0].Preempt != "off" || cells[1].Preempt != "priority+deadline+load" {
		t.Fatalf("preempt axis enumerates %+v", cells)
	}
	serial, err := RunClusterGrid(context.Background(), g, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunClusterGrid(context.Background(), g, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if s, p := serial[i].Result.Render(), parallel[i].Result.Render(); s != p {
			t.Errorf("preempt cell %d reports differ between serial and parallel sweeps:\n%s\nvs\n%s", i, s, p)
		}
	}
	if got := serial[0].Result.Preempt; got != "off" {
		t.Errorf("off cell ran with preempt %q", got)
	}
	if got := serial[1].Result.Preempt; got != "priority+deadline+load" {
		t.Errorf("armed cell ran with preempt %q", got)
	}
	// Work is conserved across the axis: both cells finish every job.
	for i, c := range serial {
		for _, j := range c.Result.Jobs {
			if j.FinishNs <= 0 {
				t.Errorf("cell %d job %s never finished", i, j.Name)
			}
		}
	}
	if _, err := RunClusterGrid(context.Background(), ClusterGrid{
		Preempts: []string{"bogus"},
	}, 1); err == nil {
		t.Error("bogus preempt spec accepted by the sweep")
	}
}

// TestClusterGridMixedServingDeterminism: a mixed training+inference
// workload — dynamic batching, latency-class admission and the slo-at-risk
// trigger all active — renders byte-identically at parallelism 1 and 8,
// with per-class aggregates intact in every cell. The grid is the
// golden matrix's cluster-mixed row (`opsched-bench -cluster 8 -models
// dcgan -nodes 1 -gpus 1 -steps 3 -policy spread -inference 24 -slo 120
// -preempt off,slo-at-risk`), whose stream is tight enough that arming
// slo-at-risk genuinely fires and strictly improves SLO attainment (the
// simulation is deterministic, so the margin is exact).
func TestClusterGridMixedServingDeterminism(t *testing.T) {
	g := mixedServingGrid(t)
	serial, err := RunClusterGrid(context.Background(), g, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunClusterGrid(context.Background(), g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 2 || len(parallel) != 2 {
		t.Fatalf("got %d serial / %d parallel cells, want 2", len(serial), len(parallel))
	}
	firings := 0
	offBest, armedWorst := 0.0, 1.0
	for i := range serial {
		if s, p := serial[i].Result.Render(), parallel[i].Result.Render(); s != p {
			t.Errorf("mixed cell %d reports differ between serial and parallel sweeps:\n%s\nvs\n%s", i, s, p)
		}
		r := serial[i].Result
		if r.InferenceJobs != 24 || r.TrainingJobs != 8 {
			t.Errorf("cell %d class split %d/%d, want 24/8", i, r.InferenceJobs, r.TrainingJobs)
		}
		if r.SLOMet > r.SLOTotal || r.SLOAttainment < 0 || r.SLOAttainment > 1 {
			t.Errorf("cell %d meets %d of %d SLOs, attainment %v", i, r.SLOMet, r.SLOTotal, r.SLOAttainment)
		}
		switch serial[i].Preempt {
		case "off":
			offBest = math.Max(offBest, r.SLOAttainment)
		case "slo-at-risk":
			firings += r.TriggerFirings
			armedWorst = math.Min(armedWorst, r.SLOAttainment)
		}
	}
	if firings == 0 {
		t.Error("slo-at-risk never fired on the mixed stream")
	}
	if armedWorst <= offBest {
		t.Errorf("slo-at-risk attainment %v not strictly above the unarmed %v", armedWorst, offBest)
	}
}

// checkQueuePercentiles asserts every cell's queue-delay percentiles are
// ordered p50 <= p95 <= p99.
func checkQueuePercentiles(t *testing.T, cells []ClusterCell) {
	t.Helper()
	for i, c := range cells {
		p50, p95, p99 := c.Result.QueuePercentileNs(0.50), c.Result.QueuePercentileNs(0.95), c.Result.QueuePercentileNs(0.99)
		if p50 > p95 || p95 > p99 {
			t.Errorf("cell %d queue percentiles p50 %v, p95 %v, p99 %v out of order", i, p50, p95, p99)
		}
	}
}
