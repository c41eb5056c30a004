package place

import (
	"strings"
	"testing"

	"opsched/internal/hw"
)

// TestQueuePercentileNs: nearest-rank quantiles over the per-job queueing
// delays, with the degenerate inputs pinned.
func TestQueuePercentileNs(t *testing.T) {
	r := &Result{}
	if got := r.QueuePercentileNs(0.99); got != 0 {
		t.Errorf("empty result p99 %v, want 0", got)
	}
	for _, q := range []float64{4e6, 1e6, 3e6, 2e6} {
		r.Jobs = append(r.Jobs, PlacedJob{QueueNs: q})
	}
	cases := []struct {
		p    float64
		want float64
	}{
		{-1, 1e6}, {0, 1e6}, {0.25, 1e6}, {0.5, 2e6}, {0.75, 3e6}, {0.99, 4e6}, {1, 4e6}, {2, 4e6},
	}
	for _, tc := range cases {
		if got := r.QueuePercentileNs(tc.p); got != tc.want {
			t.Errorf("p=%v quantile %v, want %v", tc.p, got, tc.want)
		}
	}
}

// TestCPURuntimeMemoryUnbounded: CPU nodes report no device-memory bound,
// so wave admission never consults a working set there.
func TestCPURuntimeMemoryUnbounded(t *testing.T) {
	rt := &cpuRuntime{m: hw.NewKNL()}
	if rt.MemCapacityBytes() != 0 {
		t.Errorf("CPU MemCapacityBytes %v, want 0", rt.MemCapacityBytes())
	}
	if rt.JobMemBytes("lstm") != 0 {
		t.Errorf("CPU JobMemBytes %v, want 0", rt.JobMemBytes("lstm"))
	}
}

// finalizeByHand seals a hand-built result, folding its jobs through a
// Tally in input order as an engine would in completion order.
func finalizeByHand(r *Result) {
	var t Tally
	for k := range r.Jobs {
		t.Add(&r.Jobs[k])
	}
	r.finalize(&t)
}

// TestRenderPreemptColumns: the preempt columns appear exactly when the
// result preempted something, rows stay aligned, and a migrated job's
// path prints in the path column.
func TestRenderPreemptColumns(t *testing.T) {
	r := &Result{Policy: "model-aware", Arbiter: "fair", Nodes: 2, Fleet: "2×x"}
	r.Jobs = append(r.Jobs, PlacedJob{
		Name: "moved", Model: "lstm", Node: 1, Kind: KindCPU,
		ArrivalNs: 0, FinishNs: 2e6, SoloNs: 1e6, CoRunNs: 1e6,
		CoRunSlowdown: 1, Slowdown: 2,
		Preemptions: 2, Migrations: 1, Path: "n00/cpu -> n01/cpu", DisruptionNs: 5e5,
	}, PlacedJob{
		Name: "stayed", Model: "lstm", Node: 0, Kind: KindCPU,
		ArrivalNs: 0, FinishNs: 1e6, SoloNs: 1e6, CoRunNs: 1e6,
		CoRunSlowdown: 1, Slowdown: 1,
	})
	r.NodeStats = append(r.NodeStats, NodeStats{Node: 0, Kind: KindCPU}, NodeStats{Node: 1, Kind: KindCPU})
	finalizeByHand(r)
	if r.Preemptions != 2 || r.Migrations != 1 || r.DisruptionNs != 5e5 {
		t.Fatalf("finalize aggregated %d/%d/%v", r.Preemptions, r.Migrations, r.DisruptionNs)
	}
	out := r.Render()
	if !strings.Contains(out, "n00/cpu -> n01/cpu") {
		t.Errorf("render lacks the migration path:\n%s", out)
	}
	if !strings.Contains(out, "pre") || !strings.Contains(out, "path") {
		t.Errorf("render lacks the preempt columns:\n%s", out)
	}
	if !strings.Contains(out, "preemptions 2 (1 migrated") {
		t.Errorf("render lacks the preemption summary:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines[1]) != len(lines[2]) || len(lines[2]) != len(lines[3]) {
		t.Errorf("preempt rows misaligned (%d/%d/%d):\n%s", len(lines[1]), len(lines[2]), len(lines[3]), out)
	}
	// The unpreempted row renders "-" in the path column.
	if !strings.Contains(lines[3], "  -") {
		t.Errorf("unmigrated job should render a dash path:\n%s", out)
	}
}
