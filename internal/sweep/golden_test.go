package sweep

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"opsched/internal/nn"
	"opsched/internal/obs"
	"opsched/internal/pipeline"
	"opsched/internal/place"
)

// TestGoldenMatrix is the determinism gate: every report the reproduction
// produces must equal a committed golden under testdata/golden/, byte for
// byte. The rows are the paper's experiments (one golden each), the
// multijob grid under every arbiter, and the cluster grids opsched-bench
// documents. Each cluster row runs over engine {place.PlaceJobs,
// pipeline.RunBatch} × obs {nil, metrics+tracer} × wave memo {on, off},
// and every cell must equal the row's single golden, so a divergence
// between paths and a drift from the last accepted output fail alike.
//
// A golden holds a row's reports, each followed by a newline: what
// `opsched-bench <flags> -json | jq -r '.cells[].report'` prints for the
// row's flags (`.experiments[].report` for an experiment). After an
// intended change, regenerate with
//
//	OPSCHED_UPDATE_GOLDEN=1 go test ./internal/sweep -run GoldenMatrix
func TestGoldenMatrix(t *testing.T) {
	ctx := context.Background()
	gs := goldenSet{update: os.Getenv("OPSCHED_UPDATE_GOLDEN") != ""}
	par := runtime.GOMAXPROCS(0)

	// Rows run as parallel subtests: table4 alone takes most of the
	// experiment row's time and would otherwise leave the other CPUs idle.
	t.Run("experiments", func(t *testing.T) {
		t.Parallel()
		// Run once, not once per axis: the experiments do not go through
		// the placement engine.
		reports, err := Experiments(ctx, nil, nil, par)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reports {
			gs.check(t, "exp-"+r.Name+".txt", "-exp "+r.Name, r.Report+"\n")
		}
	})

	t.Run("multijob", func(t *testing.T) {
		t.Parallel()
		const flags = `-jobs "resnet,lstm;inception,dcgan" -arbiter all`
		cells, err := RunJobGrid(ctx, JobGrid{Mixes: []JobMix{
			{Models: []string{nn.ResNet50, nn.LSTM}},
			{Models: []string{nn.InceptionV3, nn.DCGAN}},
		}}, par)
		if err != nil {
			t.Fatal(err)
		}
		var got strings.Builder
		for _, c := range cells {
			got.WriteString(c.Result.Render() + "\n")
			if f := c.Result.FairnessIndex; !(f > 0 && f <= 1+1e-9) {
				t.Errorf("%s/%s: fairness %v outside (0,1]", c.Mix, c.Arbiter, f)
			}
			for _, j := range c.Result.Jobs {
				if j.Slowdown < 1-1e-9 {
					t.Errorf("%s/%s: job %s slowdown %.4f < 1", c.Mix, c.Arbiter, j.Name, j.Slowdown)
				}
			}
		}
		gs.check(t, "multijob.txt", flags, got.String())
	})

	for _, row := range goldenClusterRows(t) {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			// The plain axis is checked against the golden and every other
			// axis against the plain one, so a drift is reported once per
			// row and a divergence names its axis.
			var plain string
			for _, ax := range matrixAxes() {
				cells, reg, err := ax.run(ctx, row.grid, par)
				if err != nil {
					t.Fatalf("%s: %v", ax, err)
				}
				var b strings.Builder
				for _, c := range cells {
					b.WriteString(c.Result.Render() + "\n")
				}
				got, label := b.String(), row.flags+" ["+ax.String()+"]"
				if ax == (matrixAxis{}) {
					plain = got
					gs.check(t, row.golden, label, got)
				} else if got != plain {
					n, g, w := firstDiff(got, plain)
					t.Errorf("%s: output diverges from %s at line %d:\n  got:  %s\n  want: %s",
						label, matrixAxis{}, n, g, w)
				}
				checkClusterCells(t, cells)
				checkQueuePercentiles(t, cells)
				if row.check != nil {
					row.check(t, cells)
				}
				if reg != nil {
					checkPrometheus(t, reg.PrometheusText())
				}
			}
		})
	}
}

// clusterRow is one cluster grid of the golden matrix.
type clusterRow struct {
	name   string
	golden string // file under testdata/golden; rows may share one
	flags  string // the opsched-bench flags that sweep the same grid
	grid   ClusterGrid
	check  func(t *testing.T, cells []ClusterCell) // row-specific; may be nil
}

// goldenClusterRows are the cluster grids the matrix pins, each with its
// workload built exactly as opsched-bench builds it from the row's flags.
func goldenClusterRows(t *testing.T) []clusterRow {
	lstmDCGAN := []string{nn.LSTM, nn.DCGAN}
	preemptOff := ClusterGrid{
		Workloads: []NamedWorkload{benchWorkload(t, 10, lstmDCGAN, 2, 3)},
		Policies:  []string{"model-aware"},
		Sizes:     []int{1},
		GPUs:      []int{1},
		Preempts:  []string{"off"},
	}
	preemptNone := preemptOff
	preemptNone.Preempts = []string{"none"}
	return []clusterRow{
		{
			name: "training", golden: "cluster-training.txt",
			flags: "-cluster 6 -nodes 2 -policy all",
			grid: ClusterGrid{
				Workloads: []NamedWorkload{benchWorkload(t, 6, lstmDCGAN, 2, 1)},
				Sizes:     []int{2},
			},
		},
		{
			name: "hetero", golden: "cluster-hetero.txt",
			flags: "-cluster 8 -nodes 1 -gpus 1 -policy all",
			grid: ClusterGrid{
				Workloads: []NamedWorkload{benchWorkload(t, 8, lstmDCGAN, 2, 1)},
				Sizes:     []int{1},
				GPUs:      []int{1},
			},
			check: func(t *testing.T, cells []ClusterCell) {
				for _, c := range cells {
					if c.Policy != "model-aware" {
						continue
					}
					kinds := map[string]bool{}
					for _, j := range c.Result.Jobs {
						kinds[j.Kind] = true
					}
					if !kinds["cpu"] || !kinds["gpu"] {
						t.Errorf("model-aware on a mixed fleet used hardware kinds %v, want cpu and gpu", kinds)
					}
				}
			},
		},
		{
			name: "preempt", golden: "cluster-preempt.txt",
			flags: "-cluster 20 -gap 1 -steps 4 -nodes 2 -gpus 2 -preempt off,on",
			grid: ClusterGrid{
				Workloads: []NamedWorkload{benchWorkload(t, 20, lstmDCGAN, 1, 4)},
				Sizes:     []int{2},
				GPUs:      []int{2},
				Preempts:  []string{"off", "all"},
			},
			check: func(t *testing.T, cells []ClusterCell) {
				for _, c := range cells {
					if c.Policy == "model-aware" && c.Preempt != "off" && c.Result.TriggerFirings == 0 {
						t.Errorf("armed model-aware cell (%s) never fired a trigger", c.Preempt)
					}
				}
			},
		},
		{
			name: "preempt-off", golden: "cluster-preempt-off.txt",
			flags: "-cluster 10 -nodes 1 -gpus 1 -steps 3 -policy model-aware -preempt off",
			grid:  preemptOff,
		},
		{
			// A zero-trigger preemptive engine is run-to-completion: it
			// must render the -preempt off golden.
			name: "preempt-none", golden: "cluster-preempt-off.txt",
			flags: "-cluster 10 -nodes 1 -gpus 1 -steps 3 -policy model-aware -preempt none",
			grid:  preemptNone,
		},
		{
			name: "mixed", golden: "cluster-mixed.txt",
			flags: "-cluster 8 -models dcgan -nodes 1 -gpus 1 -steps 3 -policy spread -inference 24 -slo 120 -preempt off,slo-at-risk",
			grid:  mixedServingGrid(t),
		},
		{
			name: "steps", golden: "cluster-steps.txt",
			flags: "-cluster 10 -nodes 2 -steps 3 -policy all",
			grid: ClusterGrid{
				Workloads: []NamedWorkload{benchWorkload(t, 10, lstmDCGAN, 2, 3)},
				Sizes:     []int{2},
			},
		},
	}
}

// mixedServingGrid is opsched-bench's `-cluster 8 -models dcgan -nodes 1
// -gpus 1 -steps 3 -policy spread -inference 24 -slo 120 -preempt
// off,slo-at-risk`: a training stream with a bursty inference tenant
// merged in.
func mixedServingGrid(t *testing.T) ClusterGrid {
	wl := benchWorkload(t, 8, []string{nn.DCGAN}, 2, 3)
	serving, err := place.SyntheticInference(24, 1, []string{nn.DCGAN}, 0.1e6, 120e6)
	if err != nil {
		t.Fatal(err)
	}
	wl.Name += "+inf24"
	wl.Jobs = wl.Jobs.Merge(serving)
	return ClusterGrid{
		Workloads: []NamedWorkload{wl},
		Policies:  []string{"spread"},
		Sizes:     []int{1},
		GPUs:      []int{1},
		Preempts:  []string{"off", "slo-at-risk"},
	}
}

// benchWorkload is opsched-bench's -cluster synthetic stream: n jobs at
// seed 1 cycling models, gapMs apart on average, with 1..steps steps.
func benchWorkload(t *testing.T, n int, models []string, gapMs float64, steps int) NamedWorkload {
	jobs, err := place.SyntheticSteps(n, 1, models, gapMs*1e6, steps)
	if err != nil {
		t.Fatal(err)
	}
	return NamedWorkload{Name: fmt.Sprintf("synthetic%d", n), Jobs: jobs}
}

// matrixAxis is one execution path a cluster row runs over.
type matrixAxis struct {
	pipeline bool // pipeline.RunBatch instead of place.PlaceJobs
	obs      bool // attach a metrics registry and a tracer
	noMemo   bool // Options.NoWaveMemo
}

func matrixAxes() []matrixAxis {
	var axes []matrixAxis
	for _, p := range []bool{false, true} {
		for _, o := range []bool{false, true} {
			for _, m := range []bool{false, true} {
				axes = append(axes, matrixAxis{pipeline: p, obs: o, noMemo: m})
			}
		}
	}
	return axes
}

func (ax matrixAxis) String() string {
	onOff := map[bool]string{false: "off", true: "on"}
	engine := "PlaceJobs"
	if ax.pipeline {
		engine = "RunBatch"
	}
	return fmt.Sprintf("engine=%s obs=%s memo=%s", engine, onOff[ax.obs], onOff[!ax.noMemo])
}

// run evaluates g on this axis. The plain axis goes through RunClusterGrid,
// the path opsched-bench takes; the others place each grid point directly.
// The registry is non-nil on obs axes.
func (ax matrixAxis) run(ctx context.Context, g ClusterGrid, par int) ([]ClusterCell, *obs.Registry, error) {
	if ax == (matrixAxis{}) {
		cells, err := RunClusterGrid(ctx, g, par)
		return cells, nil, err
	}
	var o *obs.Observer
	var reg *obs.Registry
	if ax.obs {
		reg = obs.NewRegistry()
		o = &obs.Observer{Metrics: reg, Tracer: obs.NewTracer()}
	}
	cells, err := Map(ctx, par, g.points(), func(ctx context.Context, _ int, pt clusterPoint) (ClusterCell, error) {
		opts := pt.opts
		opts.Obs, opts.NoWaveMemo = o, ax.noMemo
		var err error
		cell := pt.cell
		if ax.pipeline {
			cell.Result, err = pipeline.RunBatch(ctx, pt.jobs, pt.c, opts)
		} else {
			cell.Result, err = place.PlaceJobs(pt.jobs, pt.c, opts)
		}
		return cell, err
	})
	return cells, reg, err
}

// checkClusterCells asserts what holds for every placed job: queueing and
// contention only hurt (slowdown >= 1), every requested step retires, the
// job finishes after it arrives, and fairness lies in (0,1].
func checkClusterCells(t *testing.T, cells []ClusterCell) {
	t.Helper()
	for i, c := range cells {
		r := c.Result
		if f := r.FairnessIndex; !(f > 0 && f <= 1+1e-9) {
			t.Errorf("cell %d (%s/%s): fairness %v outside (0,1]", i, c.Policy, c.Preempt, f)
		}
		for _, j := range r.Jobs {
			if j.Slowdown < 1-1e-9 {
				t.Errorf("cell %d (%s/%s): job %s slowdown %.4f < 1", i, c.Policy, c.Preempt, j.Name, j.Slowdown)
			}
			if j.StepsDone != j.Steps {
				t.Errorf("cell %d (%s/%s): job %s retired %d of %d steps", i, c.Policy, c.Preempt, j.Name, j.StepsDone, j.Steps)
			}
			if !(j.JCTNs() > 0) {
				t.Errorf("cell %d (%s/%s): job %s has JCT %v", i, c.Policy, c.Preempt, j.Name, j.JCTNs())
			}
		}
	}
}

// checkPrometheus asserts the dump is exposition text a scraper accepts —
// every non-comment line is exactly "name{labels} value" — and carries the
// engine families dashboards key on.
func checkPrometheus(t *testing.T, dump string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimSuffix(dump, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") && len(strings.Fields(line)) != 2 {
			t.Errorf("malformed Prometheus line %q", line)
		}
	}
	for _, want := range []string{
		"\nopsched_engine_jobs_admitted_total ",
		"\n# TYPE opsched_engine_placement_scan_ns histogram\n",
	} {
		if !strings.Contains("\n"+dump, want) {
			t.Errorf("Prometheus dump lacks %q", strings.TrimSpace(want))
		}
	}
}

// goldenSet compares outputs with the files under testdata/golden. In
// update mode the first output for a file rewrites it; later outputs for
// the same file (rows sharing a golden) are checked against that one.
type goldenSet struct {
	update  bool
	mu      sync.Mutex // orders update-mode writes before reads
	written map[string]bool
}

func (gs *goldenSet) check(t *testing.T, file, label, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", file)
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if gs.update && !gs.written[file] {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		if gs.written == nil {
			gs.written = map[string]bool{}
		}
		gs.written[file] = true
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: no golden (run with OPSCHED_UPDATE_GOLDEN=1 to create): %v", label, err)
	}
	if got == string(want) {
		return
	}
	n, g, w := firstDiff(got, string(want))
	t.Errorf("%s: output differs from golden %s at line %d:\n  got:  %s\n  want: %s\n"+
		"(regenerate with OPSCHED_UPDATE_GOLDEN=1 go test ./internal/sweep -run GoldenMatrix if the change is intended)",
		label, path, n, g, w)
}

// firstDiff returns the 1-based number of the first line where got and
// want differ, and that line of each ("<EOF>" past the end).
func firstDiff(got, want string) (int, string, string) {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	line := func(ls []string, i int) string {
		if i < len(ls) {
			return fmt.Sprintf("%q", ls[i])
		}
		return "<EOF>"
	}
	i := 0
	for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
		i++
	}
	return i + 1, line(gl, i), line(wl, i)
}
