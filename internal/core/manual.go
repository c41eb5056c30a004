package core

import (
	"fmt"

	"opsched/internal/exec"
	"opsched/internal/graph"
	"opsched/internal/hw"
)

// ManualConfig is one uniform inter-op/intra-op setting of the kind a user
// can reach through TensorFlow's session options.
type ManualConfig struct {
	InterOp int
	IntraOp int
}

// String implements fmt.Stringer.
func (c ManualConfig) String() string {
	return fmt.Sprintf("inter=%d/intra=%d", c.InterOp, c.IntraOp)
}

// DefaultGrid is the exhaustive search space of the paper's "manual
// optimization" comparison: every combination the user could plausibly try.
// The paper notes this is not scalable — the search cost is exactly why the
// automatic runtime exists.
func DefaultGrid(m *hw.Machine) []ManualConfig {
	inters := []int{1, 2, 4}
	intras := []int{2, 4, 8, 16, 34, m.Cores, 2 * m.Cores}
	var grid []ManualConfig
	for _, inter := range inters {
		for _, intra := range intras {
			grid = append(grid, ManualConfig{inter, intra})
		}
	}
	return grid
}

// ManualOptimize executes g under every configuration in the grid and
// returns the fastest, with its result. It reproduces the paper's
// "Manual Optimization" baseline of Figure 3d.
func ManualOptimize(g *graph.Graph, m *hw.Machine, grid []ManualConfig) (ManualConfig, *exec.Result, error) {
	if m == nil {
		m = hw.NewKNL()
	}
	if len(grid) == 0 {
		grid = DefaultGrid(m)
	}
	var (
		bestCfg ManualConfig
		bestRes *exec.Result
	)
	for _, cfg := range grid {
		res, err := exec.Run(g, &exec.FIFO{InterOp: cfg.InterOp, IntraOp: cfg.IntraOp, Place: hw.Shared}, m)
		if err != nil {
			return ManualConfig{}, nil, fmt.Errorf("core: manual config %v: %w", cfg, err)
		}
		if bestRes == nil || res.StepTimeNs < bestRes.StepTimeNs {
			bestCfg, bestRes = cfg, res
		}
	}
	return bestCfg, bestRes, nil
}

// RunStep profiles g (if not already profiled) and executes one training
// step under the runtime on the machine it was built for, returning the
// execution result.
func (rt *Runtime) RunStep(g *graph.Graph) (*exec.Result, error) {
	if rt.graph != g || rt.store == nil {
		if err := rt.Profile(g); err != nil {
			return nil, err
		}
	}
	return exec.Run(g, rt, rt.machine)
}
