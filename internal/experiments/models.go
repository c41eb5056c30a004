package experiments

import (
	"fmt"

	"opsched/internal/core"
	"opsched/internal/exec"
	"opsched/internal/hw"
	"opsched/internal/nn"
	"opsched/internal/op"
	"opsched/internal/stats"
)

// modelsForTable5 builds the four workloads once per experiment.
func modelsForTable5() []*nn.Model { return nn.BuildAll() }

// Table1Result reproduces Table I: whole-model performance under a grid of
// uniform inter-op/intra-op parallelism settings, for ResNet-50 and DCGAN.
type Table1Result struct {
	// TimeMs[model][config] with config formatted "inter/intra".
	TimeMs map[string]map[string]float64
	// Speedup vs. the recommended configuration (1/68).
	Speedup map[string]map[string]float64
	Inter   []int
	Intra   []int
}

// Table1 runs the grid.
func Table1(m *hw.Machine) (*Table1Result, error) {
	res := &Table1Result{
		TimeMs:  make(map[string]map[string]float64),
		Speedup: make(map[string]map[string]float64),
		Inter:   []int{1, 2, 4},
		Intra:   []int{34, 68, 136},
	}
	for _, name := range []string{nn.ResNet50, nn.DCGAN} {
		model := nn.MustBuild(name)
		base, err := exec.Run(model.Graph, exec.Recommendation(m), m)
		if err != nil {
			return nil, err
		}
		res.TimeMs[name] = make(map[string]float64)
		res.Speedup[name] = make(map[string]float64)
		for _, inter := range res.Inter {
			for _, intra := range res.Intra {
				r, err := exec.Run(model.Graph,
					&exec.FIFO{InterOp: inter, IntraOp: intra, Place: hw.Shared}, m)
				if err != nil {
					return nil, err
				}
				key := fmt.Sprintf("%d/%d", inter, intra)
				res.TimeMs[name][key] = r.StepTimeNs / 1e6
				res.Speedup[name][key] = base.StepTimeNs / r.StepTimeNs
			}
		}
	}
	return res, nil
}

// Render implements Result.
func (r *Table1Result) Render() string {
	t := stats.NewTable("Table I: NN model performance under uniform inter-op x intra-op parallelism",
		"inter", "intra", "ResNet-50 ms", "speedup", "DCGAN ms", "speedup")
	for _, inter := range r.Inter {
		for _, intra := range r.Intra {
			key := fmt.Sprintf("%d/%d", inter, intra)
			t.AddRowCells(
				fmt.Sprintf("%d", inter), fmt.Sprintf("%d", intra),
				fmt.Sprintf("%.0f", r.TimeMs[nn.ResNet50][key]),
				fmt.Sprintf("%.2f", r.Speedup[nn.ResNet50][key]),
				fmt.Sprintf("%.0f", r.TimeMs[nn.DCGAN][key]),
				fmt.Sprintf("%.2f", r.Speedup[nn.DCGAN][key]),
			)
		}
	}
	return t.Render() + "(paper speedups: 1/34 .98|1.21, 2/34 1.27|1.28, 4/34 1.18|1.21, x/136 rows collapse)\n"
}

// Figure3Result reproduces Figure 3: the strategy ablation plus the
// comparison against manual optimization, for all four workloads.
type Figure3Result struct {
	// All values are speedups over the recommended configuration.
	S12      map[string]float64
	S123     map[string]float64
	All      map[string]float64
	Manual   map[string]float64
	ManualAt map[string]string
	// Incremental views matching the paper's sub-figures.
	S3OverS12 map[string]float64
	S4OverS3  map[string]float64
}

// Figure3 runs the ablation.
func Figure3(m *hw.Machine) (*Figure3Result, error) {
	res := &Figure3Result{
		S12: map[string]float64{}, S123: map[string]float64{}, All: map[string]float64{},
		Manual: map[string]float64{}, ManualAt: map[string]string{},
		S3OverS12: map[string]float64{}, S4OverS3: map[string]float64{},
	}
	for _, name := range nn.Names() {
		model := nn.MustBuild(name)
		rec, err := exec.Run(model.Graph, exec.Recommendation(m), m)
		if err != nil {
			return nil, err
		}
		step := func(cfg core.Config) (float64, error) {
			rt := core.New(m, cfg)
			r, err := rt.RunStep(model.Graph)
			if err != nil {
				return 0, err
			}
			return r.StepTimeNs, nil
		}
		s12, err := step(core.Strategies12())
		if err != nil {
			return nil, err
		}
		s123, err := step(core.Strategies123())
		if err != nil {
			return nil, err
		}
		all, err := step(core.AllStrategies())
		if err != nil {
			return nil, err
		}
		mc, mres, err := core.ManualOptimize(model.Graph, m, nil)
		if err != nil {
			return nil, err
		}
		res.S12[name] = rec.StepTimeNs / s12
		res.S123[name] = rec.StepTimeNs / s123
		res.All[name] = rec.StepTimeNs / all
		res.Manual[name] = rec.StepTimeNs / mres.StepTimeNs
		res.ManualAt[name] = mc.String()
		res.S3OverS12[name] = s12 / s123
		res.S4OverS3[name] = s123 / all
	}
	return res, nil
}

// Render implements Result.
func (r *Figure3Result) Render() string {
	t := stats.NewTable("Figure 3: strategy contributions and comparison with manual optimization (speedup over recommendation)",
		"model", "(a) S1+2", "(b) +S3 over S1+2", "(c) +S4 over S3", "(d) ours", "(d) manual", "manual config")
	for _, name := range nn.Names() {
		t.AddRowCells(name,
			fmt.Sprintf("%.2f", r.S12[name]),
			fmt.Sprintf("%.2f", r.S3OverS12[name]),
			fmt.Sprintf("%.2f", r.S4OverS3[name]),
			fmt.Sprintf("%.2f", r.All[name]),
			fmt.Sprintf("%.2f", r.Manual[name]),
			r.ManualAt[name])
	}
	return t.Render() +
		"(paper d-row: ours 1.49/1.34/1.17/1.43, manual 1.41/1.27/1.19/1.41)\n"
}

// Table6Row is one operation entry of Table VI.
type Table6Row struct {
	Model   string
	Op      string
	RecMs   float64
	S12Ms   float64
	Speedup float64
}

// Table6Result reproduces Table VI: the five most time-consuming operation
// kinds per model, under the recommendation and under Strategies 1+2.
type Table6Result struct{ Rows []Table6Row }

// Table6 aggregates per-kind execution time from full-step records.
func Table6(m *hw.Machine) (*Table6Result, error) {
	res := &Table6Result{}
	for _, name := range nn.Names() {
		model := nn.MustBuild(name)
		rec, err := exec.Run(model.Graph, exec.Recommendation(m), m)
		if err != nil {
			return nil, err
		}
		rt := core.New(m, core.Strategies12())
		s12, err := rt.RunStep(model.Graph)
		if err != nil {
			return nil, err
		}
		recAgg := aggregateByKind(model, rec)
		s12Agg := aggregateByKind(model, s12)

		top := topKinds(recAgg, 5)
		for _, kind := range top {
			res.Rows = append(res.Rows, Table6Row{
				Model:   name,
				Op:      string(kind),
				RecMs:   recAgg[kind] / 1e6,
				S12Ms:   s12Agg[kind] / 1e6,
				Speedup: recAgg[kind] / s12Agg[kind],
			})
		}
	}
	return res, nil
}

func aggregateByKind(model *nn.Model, res *exec.Result) map[op.Kind]float64 {
	agg := make(map[op.Kind]float64)
	for _, r := range res.Records {
		agg[model.Graph.Node(r.Node).Op.Kind] += r.DurationNs()
	}
	return agg
}

func topKinds(agg map[op.Kind]float64, k int) []op.Kind {
	kinds := make([]op.Kind, 0, len(agg))
	for kind := range agg {
		kinds = append(kinds, kind)
	}
	for i := 0; i < len(kinds); i++ {
		for j := i + 1; j < len(kinds); j++ {
			if agg[kinds[j]] > agg[kinds[i]] {
				kinds[i], kinds[j] = kinds[j], kinds[i]
			}
		}
	}
	if k < len(kinds) {
		kinds = kinds[:k]
	}
	return kinds
}

// Render implements Result.
func (r *Table6Result) Render() string {
	t := stats.NewTable("Table VI: five most time-consuming operation kinds, recommendation vs Strategies 1+2 (per-step totals)",
		"model", "operation", "rec ms", "S1+2 ms", "speedup")
	for _, row := range r.Rows {
		t.AddRowCells(row.Model, row.Op,
			fmt.Sprintf("%.1f", row.RecMs),
			fmt.Sprintf("%.1f", row.S12Ms),
			fmt.Sprintf("%.2f", row.Speedup))
	}
	return t.Render() + "(paper: speedups 1.01-1.34, never below 1.00)\n"
}

// Figure4Result reproduces Figure 4: the number of co-running operations
// per scheduling event, with Strategy 3 only and with Strategy 4 added.
type Figure4Result struct {
	// Series maps model name to the 6000-event co-running series.
	SeriesS3 map[string][]int
	SeriesS4 map[string][]int
	AvgS3    map[string]float64
	AvgS4    map[string]float64
}

// Figure4 records the event series on the three models the paper plots
// (LSTM is omitted there because Strategy 4 changes nothing for it).
func Figure4(m *hw.Machine) (*Figure4Result, error) {
	res := &Figure4Result{
		SeriesS3: map[string][]int{}, SeriesS4: map[string][]int{},
		AvgS3: map[string]float64{}, AvgS4: map[string]float64{},
	}
	for _, name := range []string{nn.ResNet50, nn.DCGAN, nn.InceptionV3} {
		model := nn.MustBuild(name)
		run := func(cfg core.Config) ([]int, float64, error) {
			r, err := core.New(m, cfg).RunStep(model.Graph)
			if err != nil {
				return nil, 0, err
			}
			// The paper plots events from the middle of one step.
			series := exec.CoRunning(r.Records)
			if n := 6000; len(series) > n {
				series = series[(len(series)-n)/2:][:n]
			}
			sum := 0.0
			for _, c := range series {
				sum += float64(c)
			}
			return series, sum / float64(len(series)), nil
		}
		s3, avg3, err := run(core.Strategies123())
		if err != nil {
			return nil, err
		}
		s4, avg4, err := run(core.AllStrategies())
		if err != nil {
			return nil, err
		}
		res.SeriesS3[name], res.AvgS3[name] = s3, avg3
		res.SeriesS4[name], res.AvgS4[name] = s4, avg4
	}
	return res, nil
}

// Render implements Result.
func (r *Figure4Result) Render() string {
	t := stats.NewTable("Figure 4: co-running operations per scheduling event (6000-event window)",
		"model", "avg with S3", "avg with S3+S4", "events")
	for _, name := range sortedKeys(r.AvgS3) {
		t.AddRowCells(name,
			fmt.Sprintf("%.2f", r.AvgS3[name]),
			fmt.Sprintf("%.2f", r.AvgS4[name]),
			fmt.Sprintf("%d", len(r.SeriesS4[name])))
	}
	return t.Render() + "(paper averages: S3 1.61/1.62/1.52, S3+S4 1.89/2.04/1.74; red line = inter-op 1)\n"
}
