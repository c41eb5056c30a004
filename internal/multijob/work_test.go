package multijob

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"opsched/internal/core"
	"opsched/internal/graph"
	"opsched/internal/hw"
	"opsched/internal/nn"
	"opsched/internal/op"
	"opsched/internal/perfmodel"
)

// modelGraphs builds every graph the placement engine prices: each training
// model, and each model's inference graph at batch 1 to 8.
func modelGraphs() map[string]*graph.Graph {
	gs := make(map[string]*graph.Graph)
	for _, name := range nn.Names() {
		gs[name] = nn.MustBuild(name).Graph
		for batch := 1; batch <= 8; batch++ {
			gs[name+"/infer/b"+strconv.Itoa(batch)] = nn.MustBuildInference(name, batch).Graph
		}
	}
	return gs
}

// freshWork prices every node of g from an uncached hill-climb store.
func freshWork(m *hw.Machine, g *graph.Graph) []float64 {
	store := perfmodel.ProfileGraph(m, g, core.ProfileInterval)
	work := make([]float64, g.Len())
	for _, n := range g.Nodes() {
		if pr, ok := store.Get(n.Op.Signature()); ok && pr.Best.TimeNs > 0 {
			work[n.ID] = pr.Best.TimeNs
			continue
		}
		work[n.ID] = m.OpTime(n.Op.Cost(), m.Cores, hw.Shared, hw.Solo())
	}
	return work
}

// TestPredictedWorkShared: the predicted-work vector is derived once per
// profile store and equals a fresh per-node computation bit for bit for
// every model graph; a second call returns the same backing array, a
// co-run only reads it, and perfmodel.ResetCache drops it.
func TestPredictedWorkShared(t *testing.T) {
	m := hw.NewKNL()
	for key, g := range modelGraphs() {
		got, want := predictedWork(m, g), freshWork(m, g)
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries, want %d", key, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s node %d: shared work %v, fresh %v", key, i, got[i], want[i])
			}
		}
		if again := predictedWork(m, g); &again[0] != &got[0] {
			t.Errorf("%s: second call derived a new vector", key)
		}
	}

	jobs := runtimeJobs(t, m, nn.LSTM, nn.DCGAN, nn.LSTM)
	shared := predictedWork(m, jobs[0].Graph)
	before := append([]float64(nil), shared...)
	if _, err := CoTrain(jobs, SRWF, m); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if math.Float64bits(shared[i]) != math.Float64bits(before[i]) {
			t.Fatalf("node %d: a co-run changed the shared work from %v to %v", i, before[i], shared[i])
		}
	}

	perfmodel.ResetCache()
	if after := predictedWork(m, jobs[0].Graph); &after[0] == &shared[0] {
		t.Error("after ResetCache predictedWork returned the old vector")
	}
}

// TestRuntimeJobProfilesAreRankedProfiles: the arbiters rank a runtime
// job by the profiles the job itself runs with. For each training model
// and an inference graph on KNL, the vector predictedWork returns is the
// one derived on the job's own profile store (pointer-equal), not on a
// store profiled at another interval.
func TestRuntimeJobProfilesAreRankedProfiles(t *testing.T) {
	m := hw.NewKNL()
	var graphs []*graph.Graph
	for _, name := range nn.Names() {
		graphs = append(graphs, nn.MustBuild(name).Graph)
	}
	graphs = append(graphs, nn.MustBuildInference(nn.ResNet50, 4).Graph)
	for _, g := range graphs {
		job, err := RuntimeJob(g.Name, g, m, core.AllStrategies())
		if err != nil {
			t.Fatal(err)
		}
		work := predictedWork(m, g)
		own := job.Sched.(*core.Runtime).Store().Derive(workKey{}, func() any {
			t.Fatalf("%s: the job's profile store holds no predicted-work vector", g.Name)
			return nil
		}).([]float64)
		if &own[0] != &work[0] {
			t.Errorf("%s: predictedWork read a store other than the job's own", g.Name)
		}
	}
}

// TestCoRunRejectsGraphMutatedAfterValidation: a job graph that validated
// once and then gained an unknown-kind operation is rejected again, with
// the job's name in the error.
func TestCoRunRejectsGraphMutatedAfterValidation(t *testing.T) {
	m := hw.NewKNL()
	g := nn.MustBuild(nn.LSTM).Graph
	job := FIFOJob("mutant", g, 1, 68)
	if _, err := CoRun([]Job{job}, []float64{1}, FairShare, m); err != nil {
		t.Fatal(err)
	}
	g.Add(&op.Op{Kind: "Bogus", Input: op.Dims{8, 8}}, "bogus", graph.NodeID(g.Len()-1))
	_, err := CoRun([]Job{job}, []float64{1}, FairShare, m)
	if err == nil || !strings.Contains(err.Error(), "job mutant") {
		t.Fatalf("CoRun on the mutated graph = %v, want an error naming job mutant", err)
	}
	if _, err := RuntimeJob("mutant", g, m, core.AllStrategies()); err == nil {
		t.Error("RuntimeJob profiled the mutated graph")
	}
}
