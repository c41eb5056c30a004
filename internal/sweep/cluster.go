package sweep

import (
	"context"
	"fmt"
	"time"

	"opsched/internal/gpu"
	"opsched/internal/hw"
	"opsched/internal/nn"
	"opsched/internal/obs"
	"opsched/internal/place"
)

// NamedWorkload pairs a job stream with a label for cell attribution.
type NamedWorkload struct {
	Name string
	Jobs place.Workload
}

// DefaultClusterWorkloads is one small deterministic stream mixing a short
// job (LSTM) with a mid-size one (DCGAN) — cheap enough for smoke runs,
// busy enough that placement policies visibly diverge.
func DefaultClusterWorkloads() []NamedWorkload {
	return []NamedWorkload{
		{Name: "mix6", Jobs: place.MustSynthetic(6, 1, []string{nn.LSTM, nn.DCGAN}, 2e6)},
	}
}

// ClusterGrid is a workload × policy × node-mix × preemption sweep
// specification: the node-mix axis crosses CPU node counts (Sizes) with
// GPU node counts (GPUs), so one grid compares homogeneous and
// heterogeneous fleets, and the preemption axis (Preempts) compares
// run-to-completion against checkpoint/restart trigger sets on otherwise
// identical cells. Every CPU job runs the full runtime
// (core.AllStrategies).
type ClusterGrid struct {
	// Workloads to place; empty means DefaultClusterWorkloads.
	Workloads []NamedWorkload
	// Policies are placement policy names (place.Policies);
	// empty means all built-in policies.
	Policies []string
	// Sizes are CPU node counts; empty means {1, 2, 4}.
	Sizes []int
	// GPUs are GPU node counts crossed with every size; empty means {0}
	// (CPU-only clusters). A cell with zero CPU nodes and a positive GPU
	// count is a homogeneous GPU fleet.
	GPUs []int
	// Preempts are preemption trigger specs (place.Options.Preempt)
	// crossed with every cell; empty means {"off"} — run-to-completion
	// only, the grid the engine always swept.
	Preempts []string
	// Arbiter is the per-node cross-job policy; empty means "fair".
	Arbiter string
	// Machine is the CPU-node hardware model; nil means hw.NewKNL().
	Machine *hw.Machine
	// GPU is the GPU-node device model; nil means gpu.NewP100().
	GPU *gpu.Device
	// Interconnect joins the nodes; nil means place.NewAries().
	Interconnect *place.Interconnect
	// Obs attaches an observability sink to every cell's engine; nil (the
	// default) disables it. The metrics registry's instruments are atomic,
	// so a parallel sweep aggregates across cells safely; a Tracer only
	// yields a deterministic timeline on a single-cell grid, since cells
	// interleave their emissions in completion order.
	Obs *obs.Observer
}

func (g ClusterGrid) workloads() []NamedWorkload {
	if len(g.Workloads) == 0 {
		return DefaultClusterWorkloads()
	}
	return g.Workloads
}

func (g ClusterGrid) policies() []string {
	if len(g.Policies) == 0 {
		return place.Policies()
	}
	return g.Policies
}

func (g ClusterGrid) sizes() []int {
	if len(g.Sizes) == 0 {
		return []int{1, 2, 4}
	}
	return g.Sizes
}

func (g ClusterGrid) gpus() []int {
	if len(g.GPUs) == 0 {
		return []int{0}
	}
	return g.GPUs
}

func (g ClusterGrid) preempts() []string {
	if len(g.Preempts) == 0 {
		return []string{"off"}
	}
	return g.Preempts
}

// ClusterCell is the outcome of one cluster-placement grid point.
type ClusterCell struct {
	// Workload, Policy, Nodes (CPU count), GPUs and Preempt name the grid
	// point; Preempt is "off" for run-to-completion cells.
	Workload string
	Policy   string
	Nodes    int
	GPUs     int
	Preempt  string
	// Result is the full placement outcome (nil until evaluated). Its
	// rendered report is deterministic: a parallel sweep produces
	// byte-identical reports to a serial one.
	Result *place.Result
	// Elapsed is the wall-clock cost of evaluating the cell (the only
	// nondeterministic field).
	Elapsed time.Duration
}

// clusterPoint pairs a cell label with its resolved inputs so
// RunClusterGrid never round-trips through names.
type clusterPoint struct {
	cell ClusterCell
	jobs place.Workload
	c    place.Cluster
	opts place.Options
}

func (g ClusterGrid) points() []clusterPoint {
	var pts []clusterPoint
	for _, wl := range g.workloads() {
		for _, pol := range g.policies() {
			for _, size := range g.sizes() {
				for _, gcount := range g.gpus() {
					for _, pre := range g.preempts() {
						pts = append(pts, clusterPoint{
							cell: ClusterCell{Workload: wl.Name, Policy: pol,
								Nodes: size, GPUs: gcount, Preempt: pre},
							jobs: wl.Jobs,
							c: place.Cluster{Nodes: size, Machine: g.Machine,
								GPUs: gcount, GPU: g.GPU, Interconnect: g.Interconnect},
							opts: place.Options{Policy: pol, Arbiter: g.Arbiter,
								Preempt: pre, Obs: g.Obs},
						})
					}
				}
			}
		}
	}
	return pts
}

// Cells enumerates the grid points in deterministic workload-major,
// policy-minor, size-then-GPU-count-then-preempt-innermost order — the
// order RunClusterGrid's results use.
func (g ClusterGrid) Cells() []ClusterCell {
	pts := g.points()
	cells := make([]ClusterCell, len(pts))
	for i, pt := range pts {
		cells[i] = pt.cell
	}
	return cells
}

// RunClusterGrid evaluates every cluster-placement grid point on up to
// parallelism workers. Each cell runs its own placement engine (goroutine
// confinement); hill-climb profiles are shared across cells through the
// perfmodel cache, so every cell of one workload profiles each model once.
// Results are indexed exactly like ClusterGrid.Cells.
func RunClusterGrid(ctx context.Context, g ClusterGrid, parallelism int) ([]ClusterCell, error) {
	return Map(ctx, parallelism, g.points(), func(_ context.Context, _ int, pt clusterPoint) (ClusterCell, error) {
		start := time.Now()
		cell := pt.cell
		res, err := place.PlaceJobs(pt.jobs, pt.c, pt.opts)
		if err != nil {
			return ClusterCell{}, fmt.Errorf("sweep: cell %s/%s/n=%d/g=%d/p=%s: %w",
				cell.Workload, cell.Policy, cell.Nodes, cell.GPUs, cell.Preempt, err)
		}
		cell.Result = res
		cell.Elapsed = time.Since(start)
		return cell, nil
	})
}
