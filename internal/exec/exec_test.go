package exec

import (
	"math"
	"slices"
	"testing"

	"opsched/internal/graph"
	"opsched/internal/hw"
	"opsched/internal/nn"
	"opsched/internal/op"
)

// chain builds a linear graph of n identical convolutions.
func chain(n int) *graph.Graph {
	g := graph.New("chain")
	var prev graph.NodeID = -1
	for i := 0; i < n; i++ {
		o := op.Conv(op.Conv2D, 32, 8, 8, 128, 3, 128, 1)
		if prev < 0 {
			prev = g.Add(o, "c")
		} else {
			prev = g.Add(o, "c", prev)
		}
	}
	return g
}

// diamond builds a fork-join graph around the paper's Table III pair:
// Conv2DBackpropFilter and Conv2DBackpropInput at input (32,8,8,2048),
// whose individual optimum is the full 68 cores.
func diamond() *graph.Graph {
	g := graph.New("diamond")
	src := g.Add(op.Elementwise(op.Relu, 32, 8, 8, 2048), "src")
	a := g.Add(op.Conv(op.Conv2DBackpropFilter, 32, 8, 8, 2048, 3, 2048, 1), "cbf", src)
	b := g.Add(op.Conv(op.Conv2DBackpropInput, 32, 8, 8, 2048, 3, 2048, 1), "cbi", src)
	g.Add(op.Elementwise(op.Relu, 32, 8, 8, 2048), "sink", a, b)
	return g
}

func TestRunSerialChain(t *testing.T) {
	g := chain(5)
	m := hw.NewKNL()
	res, err := Run(g, Recommendation(m), m)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 5 {
		t.Fatalf("records = %d, want 5", len(res.Records))
	}
	// Serial execution: step time equals the sum of op durations.
	sum := 0.0
	for _, r := range res.Records {
		sum += r.DurationNs()
		if r.Threads != 68 {
			t.Errorf("op ran with %d threads, want 68", r.Threads)
		}
	}
	if math.Abs(sum-res.StepTimeNs) > 1e-6*res.StepTimeNs {
		t.Errorf("serial step time %v != sum of durations %v", res.StepTimeNs, sum)
	}
	// Each op should take the solo model time.
	want := m.SoloTime(g.Node(0).Op.Cost(), 68, hw.Shared)
	if got := res.Records[0].DurationNs(); math.Abs(got-want) > 1e-6*want {
		t.Errorf("op duration %v, want solo model time %v", got, want)
	}
}

func TestRunRespectsDependencies(t *testing.T) {
	g := chain(8)
	res, err := Run(g, &FIFO{InterOp: 4, IntraOp: 16, Place: hw.Shared}, nil)
	if err != nil {
		t.Fatal(err)
	}
	finish := make(map[graph.NodeID]float64)
	start := make(map[graph.NodeID]float64)
	for _, r := range res.Records {
		finish[r.Node], start[r.Node] = r.FinishNs, r.StartNs
	}
	for _, n := range g.Nodes() {
		for _, d := range n.Deps() {
			if start[n.ID] < finish[d]-1e-6 {
				t.Errorf("node %d started at %v before dep %d finished at %v",
					n.ID, start[n.ID], d, finish[d])
			}
		}
	}
}

// TestCoRunBeatsSerialWithThreadControl reproduces Table III's headline:
// running two independent convolutions pinned to half the cores each beats
// serial execution at full width, even though each op individually slows
// down. Pinning matters: the paper's scripts partition the cores
// explicitly, unlike stock TensorFlow's overlapping pools.
func TestCoRunBeatsSerialWithThreadControl(t *testing.T) {
	g := diamond()
	m := hw.NewKNL()

	serial, err := Run(g, Recommendation(m), m)
	if err != nil {
		t.Fatal(err)
	}
	split, err := Run(g, &FIFO{InterOp: 2, IntraOp: 34, Place: hw.Shared, Pinned: true}, m)
	if err != nil {
		t.Fatal(err)
	}
	if split.StepTimeNs >= serial.StepTimeNs {
		t.Errorf("34+34 co-run (%v) not faster than 68-serial (%v)", split.StepTimeNs, serial.StepTimeNs)
	}
	speedup := serial.StepTimeNs / split.StepTimeNs
	if speedup < 1.1 || speedup > 2.0 {
		t.Errorf("co-run speedup = %.2f, want within (1.1, 2.0) around the paper's 1.38", speedup)
	}
}

// TestOversubscriptionHurts reproduces Table I's 136-thread rows: doubling
// intra-op threads past the physical cores slows the whole model down.
func TestOversubscriptionHurts(t *testing.T) {
	g := chain(4)
	m := hw.NewKNL()
	base, err := Run(g, Recommendation(m), m)
	if err != nil {
		t.Fatal(err)
	}
	over, err := Run(g, &FIFO{InterOp: 1, IntraOp: 136, Place: hw.Shared}, m)
	if err != nil {
		t.Fatal(err)
	}
	if over.StepTimeNs <= base.StepTimeNs {
		t.Errorf("136-thread run (%v) not slower than 68-thread (%v)", over.StepTimeNs, base.StepTimeNs)
	}
}

// TestTraceEvents: the co-running series of the diamond under inter-op 2 is
// a non-empty trace that shows both branches in flight at once.
func TestTraceEvents(t *testing.T) {
	g := diamond()
	res, err := Run(g, &FIFO{InterOp: 2, IntraOp: 34, Place: hw.Shared}, nil)
	if err != nil {
		t.Fatal(err)
	}
	series := CoRunning(res.Records)
	if len(series) == 0 {
		t.Fatal("co-running series empty for a run with records")
	}
	if peak := slices.Max(series); peak < 2 {
		t.Errorf("max co-running = %d, want >= 2 for the diamond under inter-op 2", peak)
	}
	if got := CoRunning(nil); len(got) != 0 {
		t.Errorf("CoRunning(nil) = %v, want no events", got)
	}
}

func nil2() *hw.Machine { return hw.NewKNL() }

// TestTraceFinishPerOperation: the diamond's records give one launch and
// one completion per operation, every count is non-negative, and the last
// completion leaves an empty machine.
func TestTraceFinishPerOperation(t *testing.T) {
	g := diamond()
	res, err := Run(g, &FIFO{InterOp: 2, IntraOp: 34, Place: hw.Shared}, nil)
	if err != nil {
		t.Fatal(err)
	}
	finishes := make(map[graph.NodeID]int)
	for _, r := range res.Records {
		if g.Node(r.Node) == nil {
			t.Fatalf("record for nonexistent node %d", r.Node)
		}
		finishes[r.Node]++
	}
	for _, n := range g.Nodes() {
		if finishes[n.ID] != 1 {
			t.Errorf("node %d has %d records, want 1", n.ID, finishes[n.ID])
		}
	}
	series := checkCoRunning(t, []*graph.Graph{g}, []Result{*res})
	if len(series) != 2*g.Len() {
		t.Errorf("%d events, want a launch and a completion for each of %d operations", len(series), g.Len())
	}
}

func TestRunErrors(t *testing.T) {
	g := chain(2)
	if _, err := Run(g, nil, nil); err == nil {
		t.Error("nil scheduler accepted")
	}
	if _, err := Run(graph.New("empty"), Recommendation(nil2()), nil); err == nil {
		t.Error("empty graph accepted")
	}
	// A scheduler that never launches anything must be reported as stalled.
	if _, err := Run(g, stallSched{}, nil); err == nil {
		t.Error("stalling scheduler not detected")
	}
	// A scheduler returning invalid decisions must fail loudly.
	if _, err := Run(g, badSched{}, nil); err == nil {
		t.Error("invalid decision not rejected")
	}
}

type stallSched struct{}

func (stallSched) Name() string                                 { return "stall" }
func (stallSched) Schedule(_ *State, dst []Decision) []Decision { return dst }

type badSched struct{}

func (badSched) Name() string { return "bad" }
func (badSched) Schedule(st *State, dst []Decision) []Decision {
	if len(st.Ready) == 0 {
		return dst
	}
	return append(dst, Decision{Node: st.Ready[0], Threads: 0, Placement: hw.Spread})
}

// TestFullModelUnderBaseline executes a whole ResNet-50 step under the
// recommendation baseline and sanity-checks the step time and record count.
func TestFullModelUnderBaseline(t *testing.T) {
	m := nn.BuildResNet50(64)
	res, err := Run(m.Graph, Recommendation(nil2()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != m.Graph.Len() {
		t.Fatalf("executed %d of %d ops", len(res.Records), m.Graph.Len())
	}
	// Step time should land in a plausible range (paper: 1382 ms on real
	// KNL; the simulator should be within the same order of magnitude).
	sec := res.StepTimeNs / 1e9
	if sec < 0.1 || sec > 20 {
		t.Errorf("ResNet-50 step time = %.3f s, outside plausible range", sec)
	}
}

// TestInterOpParallelismChangesMakespan: with enough graph width, allowing
// co-run with reduced intra-op parallelism must beat the serial baseline on
// a whole model (Table I rows inter=2, intra=34).
func TestInterOpParallelismChangesMakespan(t *testing.T) {
	model := nn.BuildResNet50(64)
	m := hw.NewKNL()
	serial, err := Run(model.Graph, Recommendation(m), m)
	if err != nil {
		t.Fatal(err)
	}
	co, err := Run(model.Graph, &FIFO{InterOp: 2, IntraOp: 34, Place: hw.Shared}, m)
	if err != nil {
		t.Fatal(err)
	}
	if co.StepTimeNs >= serial.StepTimeNs {
		t.Errorf("inter=2/intra=34 (%v) not faster than recommendation (%v) on ResNet-50",
			co.StepTimeNs, serial.StepTimeNs)
	}
}

// TestDeterminism: identical inputs yield identical timelines.
func TestDeterminism(t *testing.T) {
	model := nn.BuildDCGAN(64)
	a, err := Run(model.Graph, &FIFO{InterOp: 2, IntraOp: 34, Place: hw.Shared}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(model.Graph, &FIFO{InterOp: 2, IntraOp: 34, Place: hw.Shared}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.StepTimeNs != b.StepTimeNs {
		t.Errorf("non-deterministic step time: %v vs %v", a.StepTimeNs, b.StepTimeNs)
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs between runs", i)
		}
	}
}

// TestValidateRejectsImpossiblePinnedPlacement: a pinned decision cannot ask
// for more threads than the machine has physical cores.
func TestValidateRejectsImpossiblePinnedPlacement(t *testing.T) {
	g := chain(2)
	m := hw.NewKNL()
	_, err := Run(g, &FIFO{InterOp: 1, IntraOp: m.Cores + 1, Place: hw.Shared, Pinned: true}, m)
	if err == nil {
		t.Fatal("pinned decision with threads > cores accepted")
	}
	// The same width unpinned models stock TensorFlow oversubscription and
	// must still execute.
	if _, err := Run(g, &FIFO{InterOp: 1, IntraOp: m.Cores + 1, Place: hw.Shared}, m); err != nil {
		t.Fatalf("unpinned oversubscribed run failed: %v", err)
	}
	// At exactly the core count a pinned decision is legal.
	if _, err := Run(g, &FIFO{InterOp: 1, IntraOp: m.Cores, Place: hw.Shared, Pinned: true}, m); err != nil {
		t.Fatalf("pinned full-width run failed: %v", err)
	}
}

// TestStateHelpers: the scheduler-facing State accessors — idle-core
// accounting under non-HT load and the remaining-time maximum — behave on
// empty, loaded and oversubscribed states.
func TestStateHelpers(t *testing.T) {
	m := hw.NewKNL()
	st := &State{Machine: m}
	if st.IdleCores() != m.Cores {
		t.Errorf("empty state has %d idle cores, want %d", st.IdleCores(), m.Cores)
	}
	if st.MaxRemainingNs() != 0 {
		t.Errorf("empty state max remaining %v, want 0", st.MaxRemainingNs())
	}
	st.Running = []*Running{
		{Threads: 10, Placement: hw.Shared, remaining: 1, nominal: 5},
		{Threads: 4, Placement: hw.Shared, remaining: 0.5, nominal: 18},
		{Threads: 2, Placement: hw.Shared, HT: true, remaining: 1, nominal: 50},
	}
	if idle := st.IdleCores(); idle != m.Cores-14 {
		t.Errorf("idle cores %d, want %d (HT guests occupy no cores)", idle, m.Cores-14)
	}
	if got := st.MaxRemainingNs(); got != 50 {
		t.Errorf("max remaining %v, want 50", got)
	}
	st.Running[0].Threads = 10 * m.Cores
	if st.IdleCores() != 0 {
		t.Error("oversubscribed state reports idle cores")
	}
}

// TestFIFOPresets: the TensorFlow default and the paper's recommendation
// build the configurations the paper names.
func TestFIFOPresets(t *testing.T) {
	m := hw.NewKNL()
	def := Default(m)
	if def.InterOp != m.LogicalCPUs() || def.IntraOp != m.LogicalCPUs() {
		t.Errorf("Default = %+v, want logical CPUs everywhere", def)
	}
	rec := Recommendation(m)
	if rec.InterOp != 1 || rec.IntraOp != m.Cores {
		t.Errorf("Recommendation = %+v, want 1/68", rec)
	}
}

// TestCoRunCaps: a Claim's Cap bounds the physical cores its job holds at
// every instant — a fixed share per job, or under Leftover whatever the
// jobs ahead leave idle, so the pair never holds more than the machine —
// while uncapped the same pair oversubscribes the machine.
func TestCoRunCaps(t *testing.T) {
	m := hw.NewKNL()
	fan := graph.New("fan")
	for i := 0; i < 8; i++ {
		fan.Add(op.Conv(op.Conv2D, 32, 8, 8, 128, 3, 128, 1), "c")
	}
	jobs := []Job{
		{Name: "a", Graph: fan, Sched: &FIFO{InterOp: 4, IntraOp: 20, Place: hw.Shared}},
		{Name: "b", Graph: fan, Sched: &FIFO{InterOp: 4, IntraOp: 20, Place: hw.Shared}},
	}
	// peaks returns, per job and for the pair, the most cores held at any
	// operation's start.
	peaks := func(claims ...Claim) (a, b, both int) {
		runs, err := CoRun(jobs, m, func(_ []Result, dst []Claim) []Claim { return append(dst, claims...) })
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range append(runs[0].Records, runs[1].Records...) {
			held := [2]int{}
			for j, run := range runs {
				for _, r := range run.Records {
					if r.StartNs <= at.StartNs && at.StartNs < r.FinishNs {
						held[j] += r.Placement.CoresUsed(m, r.Threads)
					}
				}
			}
			a, b, both = max(a, held[0]), max(b, held[1]), max(both, held[0]+held[1])
		}
		return a, b, both
	}
	if a, b, _ := peaks(Claim{Job: 0, Cap: 20}, Claim{Job: 1, Cap: 40}); a > 20 || b > 40 {
		t.Errorf("fixed caps 20 and 40: jobs held up to %d and %d cores", a, b)
	}
	if _, _, both := peaks(Claim{Job: 1, Cap: Leftover}, Claim{Job: 0, Cap: Leftover}); both > m.Cores {
		t.Errorf("leftover caps: the pair held up to %d of %d cores", both, m.Cores)
	}
	if _, _, both := peaks(Claim{Job: 0, Cap: math.MaxInt}, Claim{Job: 1, Cap: math.MaxInt}); both <= m.Cores {
		t.Errorf("uncapped: the pair held at most %d of %d cores, want oversubscription", both, m.Cores)
	}
}

// countingSched counts the Schedule calls its scheduler gets.
type countingSched struct {
	Scheduler
	calls int
}

func (c *countingSched) Schedule(st *State, dst []Decision) []Decision {
	c.calls++
	return c.Scheduler.Schedule(st, dst)
}

// TestRefusedIdleLaneNotReasked: a job with nothing in flight whose
// scheduler launched nothing under a core limit is not asked again until
// its limit grows. Behind a chain at 34 threads, under Leftover, a job that
// wants all 68 cores is refused at the first event and then left alone at
// each of the chain's seven later completions; it is asked once more, and
// launches, when the chain's last completion frees the machine.
func TestRefusedIdleLaneNotReasked(t *testing.T) {
	m := hw.NewKNL()
	narrow := &countingSched{Scheduler: &FIFO{InterOp: 1, IntraOp: 34, Place: hw.Shared}}
	wide := &countingSched{Scheduler: &FIFO{InterOp: 1, IntraOp: 68, Place: hw.Shared}}
	jobs := []Job{{Name: "narrow", Graph: chain(8), Sched: narrow}, {Name: "wide", Graph: chain(1), Sched: wide}}
	claims := []Claim{{Job: 0, Cap: Leftover}, {Job: 1, Cap: Leftover}}
	runs, err := CoRun(jobs, m, func(_ []Result, dst []Claim) []Claim { return append(dst, claims...) })
	if err != nil {
		t.Fatal(err)
	}
	if wide.calls != 2 {
		t.Errorf("the wide job's scheduler was asked %d times, want 2", wide.calls)
	}
	if start := runs[1].Records[0].StartNs; start != runs[0].StepTimeNs {
		t.Errorf("the wide job started at %v ns, want the chain's finish at %v ns", start, runs[0].StepTimeNs)
	}
}
