package sweep

import (
	"context"
	"fmt"
	"strings"
	"time"

	"opsched/internal/core"
	"opsched/internal/hw"
	"opsched/internal/multijob"
	"opsched/internal/nn"
)

// JobMix is one co-scheduled workload mix: the named models share a machine
// for one training step each. A model may appear more than once (two
// replicas of one job).
type JobMix struct {
	// Name labels the mix in cells; empty means the models joined by "+".
	Name string
	// Models are workload names accepted by nn.Build.
	Models []string
}

func (mix JobMix) name() string {
	if mix.Name != "" {
		return mix.Name
	}
	return strings.Join(mix.Models, "+")
}

// DefaultJobMixes pairs the paper's workloads into the two co-location
// mixes the multi-job experiments report on: a long job next to a short one
// (ResNet-50 + LSTM) and the two mid-size models (Inception-v3 + DCGAN).
func DefaultJobMixes() []JobMix {
	return []JobMix{
		{Models: []string{nn.ResNet50, nn.LSTM}},
		{Models: []string{nn.InceptionV3, nn.DCGAN}},
	}
}

// NamedMachine pairs a hardware model with a label for cell attribution.
type NamedMachine struct {
	Name    string
	Machine *hw.Machine
}

// JobGrid is a job-mix × arbiter-policy × machine sweep specification.
type JobGrid struct {
	// Mixes to co-schedule; empty means DefaultJobMixes.
	Mixes []JobMix
	// Arbiters are policy names accepted by multijob.NewArbiter; empty
	// means all built-in policies.
	Arbiters []string
	// Machines to sweep; empty means one NewKNL labelled "knl".
	Machines []NamedMachine
	// Config is the per-job runtime configuration; nil means the full
	// strategy set (AllStrategies).
	Config *core.Config
}

func (g JobGrid) mixes() []JobMix {
	if len(g.Mixes) == 0 {
		return DefaultJobMixes()
	}
	return g.Mixes
}

func (g JobGrid) arbiters() []string {
	if len(g.Arbiters) == 0 {
		return multijob.Arbiters()
	}
	return g.Arbiters
}

func (g JobGrid) machines() []NamedMachine {
	if len(g.Machines) == 0 {
		return []NamedMachine{{Name: "knl", Machine: hw.NewKNL()}}
	}
	return g.Machines
}

func (g JobGrid) config() core.Config {
	if g.Config == nil {
		return core.AllStrategies()
	}
	return *g.Config
}

// JobCell is the outcome of one job-mix grid point.
type JobCell struct {
	// Machine, Mix and Arbiter name the grid point.
	Machine string
	Mix     string
	Arbiter string
	// Result is the full co-train outcome (nil until evaluated). Its
	// rendered report is deterministic: a parallel sweep produces
	// byte-identical reports to a serial one.
	Result *multijob.Result
	// Elapsed is the wall-clock cost of evaluating the cell (the only
	// nondeterministic field).
	Elapsed time.Duration
}

// jobPoint pairs a cell label with its resolved inputs so RunJobGrid never
// round-trips through names.
type jobPoint struct {
	cell    JobCell
	machine *hw.Machine
	mix     JobMix
	cfg     core.Config
}

func (g JobGrid) points() []jobPoint {
	var pts []jobPoint
	for _, m := range g.machines() {
		for _, mix := range g.mixes() {
			for _, arb := range g.arbiters() {
				pts = append(pts, jobPoint{
					cell:    JobCell{Machine: m.Name, Mix: mix.name(), Arbiter: arb},
					machine: m.Machine,
					mix:     mix,
					cfg:     g.config(),
				})
			}
		}
	}
	return pts
}

// Cells enumerates the grid points in deterministic machine-major,
// mix-minor, arbiter-innermost order — the order RunJobGrid's results use.
func (g JobGrid) Cells() []JobCell {
	pts := g.points()
	cells := make([]JobCell, len(pts))
	for i, pt := range pts {
		cells[i] = pt.cell
	}
	return cells
}

// RunJobGrid evaluates every job-mix grid point on up to parallelism
// workers. Each cell builds its own graphs, runtimes and arbiter (goroutine
// confinement); hill-climb profiles are shared across cells through the
// perfmodel cache. Results are indexed exactly like JobGrid.Cells. Earlier
// jobs in a mix get higher strict-priority rank, so the priority arbiter
// favours the mix's first model.
func RunJobGrid(ctx context.Context, g JobGrid, parallelism int) ([]JobCell, error) {
	return Map(ctx, parallelism, g.points(), func(ctx context.Context, _ int, pt jobPoint) (JobCell, error) {
		start := time.Now()
		cell := pt.cell
		if pt.machine == nil {
			return JobCell{}, fmt.Errorf("sweep: machine %q is nil", cell.Machine)
		}
		if len(pt.mix.Models) == 0 {
			return JobCell{}, fmt.Errorf("sweep: mix %q has no models", cell.Mix)
		}
		arb, err := multijob.NewArbiter(cell.Arbiter)
		if err != nil {
			return JobCell{}, fmt.Errorf("sweep: cell %s/%s/%s: %w", cell.Machine, cell.Mix, cell.Arbiter, err)
		}
		jobs := make([]multijob.Job, len(pt.mix.Models))
		for i, name := range pt.mix.Models {
			model, err := nn.Build(name)
			if err != nil {
				return JobCell{}, fmt.Errorf("sweep: cell %s/%s/%s: %w", cell.Machine, cell.Mix, cell.Arbiter, err)
			}
			job, err := multijob.RuntimeJob(model.Name, model.Graph, pt.machine, pt.cfg)
			if err != nil {
				return JobCell{}, fmt.Errorf("sweep: cell %s/%s/%s: %w", cell.Machine, cell.Mix, cell.Arbiter, err)
			}
			job.Priority = len(pt.mix.Models) - i
			jobs[i] = job
		}
		res, err := multijob.CoTrain(jobs, arb, multijob.Options{Machine: pt.machine})
		if err != nil {
			return JobCell{}, fmt.Errorf("sweep: cell %s/%s/%s: %w", cell.Machine, cell.Mix, cell.Arbiter, err)
		}
		cell.Result = res
		cell.Elapsed = time.Since(start)
		return cell, nil
	})
}
