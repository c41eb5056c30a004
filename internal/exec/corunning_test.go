package exec

import (
	"slices"
	"testing"

	"opsched/internal/graph"
	"opsched/internal/hw"
	"opsched/internal/nn"
	"opsched/internal/op"
)

// TestCoRunningDiamond checks the series of a diamond with twin
// backprop-filter branches under inter-op 2 by hand. src runs alone; the
// twins launch at its completion instant and, with equal costs and widths,
// finish at one instant, where the sink launches. At both shared instants
// the completions come first, so the count never exceeds 2.
func TestCoRunningDiamond(t *testing.T) {
	g := graph.New("twins")
	src := g.Add(op.Elementwise(op.Relu, 32, 8, 8, 2048), "src")
	a := g.Add(op.Conv(op.Conv2DBackpropFilter, 32, 8, 8, 2048, 3, 2048, 1), "cbf", src)
	b := g.Add(op.Conv(op.Conv2DBackpropFilter, 32, 8, 8, 2048, 3, 2048, 1), "cbf2", src)
	g.Add(op.Elementwise(op.Relu, 32, 8, 8, 2048), "sink", a, b)
	res, err := Run(g, &FIFO{InterOp: 2, IntraOp: 34, Place: hw.Shared}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Records
	if len(rec) != 4 || rec[1].FinishNs != rec[2].FinishNs || rec[3].StartNs != rec[1].FinishNs {
		t.Fatalf("records %+v: want the twins to finish at one instant, where the sink starts", rec)
	}
	want := []int{
		1, 0, // src
		1, 2, // the twins launch
		1, 0, // and finish at one clock
		1, 0, // sink
	}
	if got := CoRunning(rec); !slices.Equal(got, want) {
		t.Errorf("CoRunning = %v, want %v", got, want)
	}
	checkCoRunning(t, []*graph.Graph{g}, []Result{*res})
}

// checkCoRunning checks runs of graphs against the co-running series of
// their concatenated records: every operation ran once and finished no
// earlier than it started, so the series has one launch (+1) and one
// completion (-1) per operation, never goes negative and ends on an empty
// machine.
func checkCoRunning(t *testing.T, graphs []*graph.Graph, runs []Result) []int {
	t.Helper()
	var all []OpRecord
	for i, run := range runs {
		ran := make([]int, graphs[i].Len())
		for _, r := range run.Records {
			if r.FinishNs < r.StartNs {
				t.Fatalf("%s: node %d finished at %v before its launch at %v", graphs[i].Name, r.Node, r.FinishNs, r.StartNs)
			}
			ran[r.Node]++
		}
		for id, n := range ran {
			if n != 1 {
				t.Fatalf("%s: node %d has %d records, want 1", graphs[i].Name, id, n)
			}
		}
		all = append(all, run.Records...)
	}
	series := CoRunning(all)
	if len(series) != 2*len(all) {
		t.Fatalf("%d events for %d operations, want a launch and a completion each", len(series), len(all))
	}
	prev := 0
	for i, c := range series {
		if c < 0 {
			t.Fatalf("event %d has negative co-running count %d", i, c)
		}
		if c != prev+1 && c != prev-1 {
			t.Fatalf("event %d moves the count from %d to %d", i, prev, c)
		}
		prev = c
	}
	if prev != 0 {
		t.Fatalf("the last event leaves %d operations running, want 0", prev)
	}
	return series
}

// wide runs at inter-op 4, so that on the models' fork-join graphs several
// operations complete at one virtual instant.
var wide = &FIFO{InterOp: 4, IntraOp: 17, Place: hw.Shared}

// TestCoRunningModels checks the series over every built-in model's full
// training step, under the recommendation and at inter-op 4.
func TestCoRunningModels(t *testing.T) {
	m := hw.NewKNL()
	for _, name := range nn.Names() {
		t.Run(name, func(t *testing.T) {
			g := nn.MustBuild(name).Graph
			for _, s := range []Scheduler{Recommendation(m), wide} {
				res, err := Run(g, s, m)
				if err != nil {
					t.Fatal(err)
				}
				checkCoRunning(t, []*graph.Graph{g}, []Result{*res})
			}
		})
	}
}

// TestCoRunningInference checks the series over a forward-only serving
// graph, whose short critical path makes simultaneous completions common.
func TestCoRunningInference(t *testing.T) {
	m := hw.NewKNL()
	model, err := nn.BuildInference(nn.DCGAN, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scheduler{Recommendation(m), wide} {
		res, err := Run(model.Graph, s, m)
		if err != nil {
			t.Fatal(err)
		}
		checkCoRunning(t, []*graph.Graph{model.Graph}, []Result{*res})
	}
}

// TestCoRunningCoRun: the series of a two-job co-run, from its jobs'
// concatenated records, obeys the solo invariants, and its peak is the
// most operations of either job in flight at one instant: the count just
// after the launches at some operation's start, where operations that
// finish at that instant have already left.
func TestCoRunningCoRun(t *testing.T) {
	m := hw.NewKNL()
	graphs := []*graph.Graph{nn.MustBuild(nn.LSTM).Graph, nn.MustBuild(nn.DCGAN).Graph}
	jobs := []Job{
		{Name: "lstm", Graph: graphs[0], Sched: wide},
		{Name: "dcgan", Graph: graphs[1], Sched: wide},
	}
	runs, err := CoRun(jobs, m, func(_ []Result, dst []Claim) []Claim {
		return append(dst, Claim{Job: 0, Cap: Leftover}, Claim{Job: 1, Cap: Leftover})
	})
	if err != nil {
		t.Fatal(err)
	}
	series := checkCoRunning(t, graphs, runs)

	all := append(slices.Clone(runs[0].Records), runs[1].Records...)
	overlap := 0
	for _, at := range all {
		n := 0
		for _, r := range all {
			if r.StartNs <= at.StartNs && at.StartNs < r.FinishNs {
				n++
			}
		}
		overlap = max(overlap, n)
	}
	if peak := slices.Max(series); peak != overlap {
		t.Errorf("series peak %d, want the %d records that overlap at one instant", peak, overlap)
	}
	if overlap < 2 {
		t.Errorf("the co-run never ran two operations at once (peak %d)", overlap)
	}
}
