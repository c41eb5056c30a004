package multijob

import (
	"fmt"
	"math"
	"testing"

	"opsched/internal/core"
	"opsched/internal/exec"
	"opsched/internal/graph"
	"opsched/internal/hw"
	"opsched/internal/nn"
)

// TestPredictedSoloWorkNs pins the placement-facing work estimate: positive,
// deterministic, and monotone in graph size (DCGAN's graph outweighs a
// single LSTM cell-chain's cheapest op set on the same machine only if the
// estimate actually sums per-op predicted work).
func TestPredictedSoloWorkNs(t *testing.T) {
	m := hw.NewKNL()
	g := nn.MustBuild(nn.DCGAN).Graph
	w := PredictedSoloWorkNs(m, g)
	if w <= 0 {
		t.Fatalf("predicted solo work %v, want > 0", w)
	}
	if again := PredictedSoloWorkNs(m, g); again != w {
		t.Fatalf("estimate not deterministic: %v vs %v", again, w)
	}
}

// strategyConfigs lists all 16 combinations of the runtime's strategies.
func strategyConfigs() []core.Config {
	cfgs := make([]core.Config, 0, 16)
	for mask := 0; mask < 16; mask++ {
		cfgs = append(cfgs, core.Config{Strategy1: mask&1 != 0, Strategy2: mask&2 != 0,
			Strategy3: mask&4 != 0, Strategy4: mask&8 != 0})
	}
	return cfgs
}

// soloJobs builds one job per runtime strategy configuration and per
// manual FIFO grid point on model g, skipping the grid points keep rejects.
func soloJobs(t *testing.T, m *hw.Machine, g *graph.Graph, keep func(core.ManualConfig) bool) []Job {
	t.Helper()
	var jobs []Job
	for _, cfg := range strategyConfigs() {
		j, err := RuntimeJob(fmt.Sprintf("runtime%+v", cfg), g, m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, c := range core.DefaultGrid(m) {
		if keep(c) {
			jobs = append(jobs, FIFOJob(fmt.Sprintf("fifo(%dx%d)", c.InterOp, c.IntraOp), g, c.InterOp, c.IntraOp))
		}
	}
	return jobs
}

// TestSoloNsMatchesRunUnlessOversubscribed: SoloNs caps the lone job at
// every core and exec.Run does not, and the cap binds only where a FIFO
// configuration runs several operations whose threads exceed the cores.
// Everywhere else — all 16 strategy configurations and every other manual
// grid point — the two step times are bit-identical.
func TestSoloNsMatchesRunUnlessOversubscribed(t *testing.T) {
	m := hw.NewKNL()
	oversubscribed := func(c core.ManualConfig) bool { return c.InterOp > 1 && c.InterOp*c.IntraOp > m.Cores }
	skipped := 0
	for _, c := range core.DefaultGrid(m) {
		if oversubscribed(c) {
			skipped++
		}
	}
	if skipped != 5 {
		t.Fatalf("%d oversubscribed grid points, want 5 (2x68, 2x136, 4x34, 4x68, 4x136)", skipped)
	}
	models := nn.Names()
	if testing.Short() {
		models = []string{nn.LSTM, nn.DCGAN}
	}
	for _, name := range models {
		g := nn.MustBuild(name).Graph
		for _, job := range soloJobs(t, m, g, func(c core.ManualConfig) bool { return !oversubscribed(c) }) {
			run, err := exec.Run(g, job.Sched, m)
			if err != nil {
				t.Fatalf("%s %s: %v", name, job.Name, err)
			}
			solo, err := SoloNs(job, m)
			if err != nil {
				t.Fatalf("%s %s: %v", name, job.Name, err)
			}
			if math.Float64bits(solo) != math.Float64bits(run.StepTimeNs) {
				t.Errorf("%s %s: capped solo %v ns, uncapped run %v ns", name, job.Name, solo, run.StepTimeNs)
			}
		}
	}
}

// criticalPathNs is a lower bound on any step time of g on m: the longest
// dependency path, each operation weighted by its fastest solo time over
// every thread count up to the logical CPUs and both placements.
// Contention only slows an operation down, so no schedule beats it.
func criticalPathNs(m *hw.Machine, g *graph.Graph) float64 {
	best := make(map[string]float64)
	finish := make([]float64, g.Len())
	bound := 0.0
	for _, n := range g.Nodes() { // Add takes only existing deps: a topological order
		sig := n.Op.Signature()
		w, ok := best[sig]
		if !ok {
			w = math.Inf(1)
			for p := 1; p <= m.LogicalCPUs(); p++ {
				for _, pl := range []hw.Placement{hw.Spread, hw.Shared} {
					w = min(w, m.SoloTime(n.Op.Cost(), p, pl))
				}
			}
			best[sig] = w
		}
		start := 0.0
		for _, d := range n.Deps() {
			start = max(start, finish[d])
		}
		finish[n.ID] = start + w
		bound = max(bound, finish[n.ID])
	}
	return bound
}

// TestStepTimeAboveCriticalPath: no step time beats the critical-path
// bound — solo runs under all 16 strategy configurations and every manual
// FIFO grid point, and each job of every model pair's co-run under every
// arbiter. A step below the bound means the op-event loop ran an
// operation faster than the machine model allows.
func TestStepTimeAboveCriticalPath(t *testing.T) {
	m := hw.NewKNL()
	bounds := make(map[string]float64)
	for _, name := range nn.Names() {
		g := nn.MustBuild(name).Graph
		bound := criticalPathNs(m, g)
		bounds[name] = bound
		lowest := math.Inf(1)
		for _, job := range soloJobs(t, m, g, func(core.ManualConfig) bool { return true }) {
			res, err := exec.Run(g, job.Sched, m)
			if err != nil {
				t.Fatalf("%s %s: %v", name, job.Name, err)
			}
			if res.StepTimeNs < bound {
				t.Errorf("%s %s: step %.0f ns below the critical-path bound %.0f ns", name, job.Name, res.StepTimeNs, bound)
			}
			lowest = min(lowest, res.StepTimeNs/bound)
		}
		t.Logf("%s: critical-path bound %.1f ms, smallest step/bound %.3f", name, bound/1e6, lowest)
	}
	names := nn.Names()
	for a := 0; a < len(names); a++ {
		for b := a + 1; b < len(names); b++ {
			for _, arb := range []Arbiter{FairShare, Priority, SRWF} {
				res, err := CoTrain(runtimeJobs(t, m, names[a], names[b]), arb, m)
				if err != nil {
					t.Fatal(err)
				}
				for _, jr := range res.Jobs {
					bound, ok := bounds[jr.Name]
					if !ok {
						t.Fatalf("no critical-path bound for job %s", jr.Name)
					}
					if jr.MakespanNs < bound {
						t.Errorf("%s with %s under %s: %s finished at %.0f ns, below the critical-path bound %.0f ns",
							names[a], names[b], arb.Name(), jr.Name, jr.MakespanNs, bound)
					}
				}
			}
		}
	}
}
