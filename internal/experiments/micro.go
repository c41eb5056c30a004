package experiments

import (
	"fmt"
	"strings"

	"opsched/internal/exec"
	"opsched/internal/graph"
	"opsched/internal/hw"
	"opsched/internal/op"
	"opsched/internal/perfmodel"
	"opsched/internal/stats"
)

// figure1Threads is the x-axis of Figure 1.
var figure1Threads = []int{1, 8, 16, 24, 32, 40, 48, 56, 64, 68}

// convTrio returns the three standalone convolution kernels of Figure 1 /
// Table II at the paper's reference input (32,8,8,384).
func convTrio() []*op.Op {
	return []*op.Op{
		op.Conv(op.Conv2DBackpropFilter, 32, 8, 8, 384, 3, 384, 1),
		op.Conv(op.Conv2DBackpropInput, 32, 8, 8, 384, 3, 384, 1),
		op.Conv(op.Conv2D, 32, 8, 8, 384, 3, 384, 1),
	}
}

// Figure1Result holds the time-vs-threads curves of the three convolution
// kernels (total seconds over one thousand runs, as the paper plots).
type Figure1Result struct {
	Threads []int
	// SecPerKOp maps operation kind to the per-thread-count series.
	SecPerKOp map[string][]float64
	// BestThreads maps operation kind to the optimum of the full sweep.
	BestThreads map[string]int
}

// Figure1 sweeps thread counts for the three convolutions.
func Figure1(m *hw.Machine) *Figure1Result {
	r := &Figure1Result{
		Threads:     figure1Threads,
		SecPerKOp:   make(map[string][]float64),
		BestThreads: make(map[string]int),
	}
	for _, o := range convTrio() {
		cost := o.Cost()
		series := make([]float64, 0, len(figure1Threads))
		for _, p := range figure1Threads {
			_, t := m.BestPlacement(cost, p, hw.Solo())
			series = append(series, t*1000/1e9) // 1000 runs, in seconds
		}
		r.SecPerKOp[string(o.Kind)] = series
		best, _, _ := m.BestThreads(cost, m.Cores, hw.Solo())
		r.BestThreads[string(o.Kind)] = best
	}
	return r
}

// Render implements Result.
func (r *Figure1Result) Render() string {
	t := stats.NewTable("Figure 1: execution time (s per 1000 runs) vs. intra-op threads, input (32,8,8,384)",
		append([]string{"op"}, intsToStrings(r.Threads)...)...)
	for _, kind := range sortedKeys(r.SecPerKOp) {
		cells := []string{kind}
		for _, v := range r.SecPerKOp[kind] {
			cells = append(cells, fmt.Sprintf("%.2f", v))
		}
		t.AddRowCells(cells...)
	}
	var b strings.Builder
	b.WriteString(t.Render())
	b.WriteString("optimal threads: ")
	for i, kind := range sortedKeys(r.BestThreads) {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%d", kind, r.BestThreads[kind])
	}
	b.WriteString(" (paper: CBF=26, CBI=36, C2D=45)\n")
	return b.String()
}

func intsToStrings(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%d", x)
	}
	return out
}

// Table2Row is one (operation, input size) entry of Table II.
type Table2Row struct {
	Op          string
	Input       string
	TotalSec    float64 // 1000 runs at the optimum
	BestThreads int
	// VariancePct is the time penalty of the 68-thread default vs. the
	// optimum.
	VariancePct float64
}

// Table2Result reproduces Table II: the impact of input size on the
// optimal intra-op parallelism.
type Table2Result struct{ Rows []Table2Row }

// Table2 sweeps the three convolutions across the paper's three input
// sizes.
func Table2(m *hw.Machine) *Table2Result {
	type shape struct {
		n, h, w, c, k, cout int
	}
	shapes := []shape{
		{32, 8, 8, 384, 3, 384},
		{32, 17, 17, 384, 3, 384},
		{32, 8, 8, 2048, 3, 2048},
	}
	res := &Table2Result{}
	for _, kind := range []op.Kind{op.Conv2DBackpropFilter, op.Conv2DBackpropInput, op.Conv2D} {
		for _, s := range shapes {
			o := op.Conv(kind, s.n, s.h, s.w, s.c, s.k, s.cout, 1)
			cost := o.Cost()
			best, _, tBest := m.BestThreads(cost, m.Cores, hw.Solo())
			t68 := m.SoloTime(cost, m.Cores, hw.Shared)
			res.Rows = append(res.Rows, Table2Row{
				Op:          string(kind),
				Input:       o.Input.String(),
				TotalSec:    tBest * 1000 / 1e9,
				BestThreads: best,
				VariancePct: (t68/tBest - 1) * 100,
			})
		}
	}
	return res
}

// Render implements Result.
func (r *Table2Result) Render() string {
	t := stats.NewTable("Table II: impact of input data size on operation performance",
		"operation", "input size", "time (s/1000 runs)", "best threads", "variance vs 68")
	for _, row := range r.Rows {
		t.AddRowCells(row.Op, row.Input,
			fmt.Sprintf("%.1f", row.TotalSec),
			fmt.Sprintf("%d", row.BestThreads),
			fmt.Sprintf("%.1f%%", row.VariancePct))
	}
	return t.Render()
}

// Table3Result reproduces Table III: three ways of running the
// Conv2DBackpropFilter + Conv2DBackpropInput pair at input (32,8,8,2048).
type Table3Result struct {
	SerialSec  float64
	HyperSec   float64
	SplitSec   float64
	HyperSpeed float64
	SplitSpeed float64
}

// Table3 builds the two-operation workload and executes it under the
// paper's three strategies: serial at 68 threads, co-run on hyper-threads
// (68+68), and co-run with the cores split 34+34.
func Table3(m *hw.Machine) (*Table3Result, error) {
	mk := func() *graph.Graph {
		g := graph.New("table3")
		g.Add(op.Conv(op.Conv2DBackpropFilter, 32, 8, 8, 2048, 1, 2048, 1), "cbf")
		g.Add(op.Conv(op.Conv2DBackpropInput, 32, 8, 8, 2048, 1, 2048, 1), "cbi")
		return g
	}
	run := func(s exec.Scheduler) (float64, error) {
		res, err := exec.Run(mk(), s, m)
		if err != nil {
			return 0, err
		}
		return res.StepTimeNs * 1000 / 1e9, nil
	}
	serial, err := run(&exec.FIFO{InterOp: 1, IntraOp: 68, Place: hw.Shared})
	if err != nil {
		return nil, err
	}
	hyper, err := run(&exec.FIFO{InterOp: 2, IntraOp: 68, Place: hw.Shared})
	if err != nil {
		return nil, err
	}
	split, err := run(&exec.FIFO{InterOp: 2, IntraOp: 34, Place: hw.Shared, Pinned: true})
	if err != nil {
		return nil, err
	}
	return &Table3Result{
		SerialSec: serial, HyperSec: hyper, SplitSec: split,
		HyperSpeed: serial / hyper, SplitSpeed: serial / split,
	}, nil
}

// Render implements Result.
func (r *Table3Result) Render() string {
	t := stats.NewTable("Table III: co-running CBF+CBI at input (32,8,8,2048), totals for 1000 runs",
		"strategy", "#threads", "time (s)", "speedup")
	t.AddRowCells("Serial execution", "68", fmt.Sprintf("%.1f", r.SerialSec), "1.00")
	t.AddRowCells("Co-run with hyper-threading", "68+68", fmt.Sprintf("%.1f", r.HyperSec), fmt.Sprintf("%.2f", r.HyperSpeed))
	t.AddRowCells("Co-run with threads control", "34+34", fmt.Sprintf("%.1f", r.SplitSec), fmt.Sprintf("%.2f", r.SplitSpeed))
	return t.Render() + "(paper: 1.00 / 1.03 / 1.38)\n"
}

// Table5Result reproduces Table V: hill-climbing prediction accuracy per
// model and climb interval.
type Table5Result struct {
	Intervals []int
	// Acc maps model name to per-interval mean accuracy over operation
	// classes.
	Acc map[string][]float64
}

// Table5 hill-climbs every operation class of each workload at each
// interval and evaluates interpolation accuracy against the machine model.
func Table5(m *hw.Machine) *Table5Result {
	return table5Impl(m)
}

// Render implements Result.
func (r *Table5Result) Render() string {
	head := []string{"model"}
	for _, x := range r.Intervals {
		head = append(head, fmt.Sprintf("x=%d", x))
	}
	t := stats.NewTable("Table V: hill-climbing performance-model prediction accuracy", head...)
	for _, name := range sortedKeys(r.Acc) {
		cells := []string{name}
		for _, a := range r.Acc[name] {
			cells = append(cells, fmt.Sprintf("%.2f%%", a*100))
		}
		t.AddRowCells(cells...)
	}
	return t.Render() + "(paper: 95-98% at x=2 degrading to 10-31% at x=16)\n"
}

// table5Impl is shared with tests.
func table5Impl(m *hw.Machine) *Table5Result {
	intervals := []int{2, 4, 8, 16}
	res := &Table5Result{Intervals: intervals, Acc: make(map[string][]float64)}
	for _, model := range modelsForTable5() {
		accs := make([]float64, 0, len(intervals))
		for _, x := range intervals {
			store := perfmodel.CachedProfileGraph(m, model.Graph, x)
			sum, n := 0.0, 0
			seen := make(map[string]bool)
			for _, node := range model.Graph.Nodes() {
				sig := node.Op.Signature()
				if seen[sig] {
					continue
				}
				seen[sig] = true
				pr, ok := store.Get(sig)
				if !ok {
					continue
				}
				sum += perfmodel.Accuracy(pr, perfmodel.MachineTime(m, node.Op.Cost()), m)
				n++
			}
			accs = append(accs, sum/float64(n))
		}
		res.Acc[model.Name] = accs
	}
	return res
}
