package opsched

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// serializeCells JSON-encodes a sweep's deterministic payload: the cell
// labels plus rendered reports, with the wall-clock Elapsed fields (the
// only legitimately nondeterministic data) left out.
func serializeCells(t *testing.T, cells interface{}) []byte {
	t.Helper()
	type entry struct {
		Label  []interface{} `json:"label"`
		Report string        `json:"report"`
	}
	var entries []entry
	switch cs := cells.(type) {
	case []JobSweepCell:
		for _, c := range cs {
			entries = append(entries, entry{
				Label:  []interface{}{c.Machine, c.Mix, c.Arbiter},
				Report: c.Result.Render(),
			})
		}
	case []ClusterSweepCell:
		for _, c := range cs {
			entries = append(entries, entry{
				Label:  []interface{}{c.Workload, c.Policy, c.Nodes, c.GPUs},
				Report: c.Result.Render(),
			})
		}
	default:
		t.Fatalf("serializeCells: unsupported type %T", cells)
	}
	out, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSweepSerializedDeterminism is the in-repo determinism gate (the CI
// workflow checks the same property through the CLI): the job sweep and
// the cluster sweep serialize byte-identically at parallelism 1 and 8.
func TestSweepSerializedDeterminism(t *testing.T) {
	ctx := context.Background()

	jobGrid := JobSweepGrid{Mixes: []JobMix{{Models: []string{DCGAN, LSTM}}}}
	jobSerial, err := RunJobSweep(ctx, jobGrid, 1)
	if err != nil {
		t.Fatal(err)
	}
	jobParallel, err := RunJobSweep(ctx, jobGrid, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s, p := serializeCells(t, jobSerial), serializeCells(t, jobParallel); !bytes.Equal(s, p) {
		t.Errorf("job sweep serialization differs between parallel 1 and 8:\n%s\nvs\n%s", s, p)
	}

	workload, err := SyntheticWorkload(5, 2, []string{"lstm", "dcgan"}, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	clusterGrid := ClusterSweepGrid{
		Workloads: []NamedWorkload{{Name: "stream5", Jobs: workload}},
		Sizes:     []int{2},
		GPUs:      []int{0, 1},
	}
	clSerial, err := RunClusterSweep(ctx, clusterGrid, 1)
	if err != nil {
		t.Fatal(err)
	}
	clParallel, err := RunClusterSweep(ctx, clusterGrid, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s, p := serializeCells(t, clSerial), serializeCells(t, clParallel); !bytes.Equal(s, p) {
		t.Errorf("cluster sweep serialization differs between parallel 1 and 8:\n%s\nvs\n%s", s, p)
	}
}

// TestFacadePlaceJobs drives the cluster placement surface end to end:
// short model names resolve, every policy places the stream, slowdowns
// stay >= 1, and bad input is rejected.
func TestFacadePlaceJobs(t *testing.T) {
	workload, err := SyntheticWorkload(4, 1, []string{"lstm"}, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range PlacementPolicies() {
		res, err := PlaceJobs(workload, Cluster{Nodes: 2}, PlaceOptions{Policy: policy})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if len(res.Jobs) != 4 {
			t.Fatalf("%s: placed %d jobs, want 4", policy, len(res.Jobs))
		}
		for _, j := range res.Jobs {
			if j.Slowdown < 1-1e-9 {
				t.Errorf("%s: job %s slowdown %.4f < 1", policy, j.Name, j.Slowdown)
			}
		}
	}
	if _, err := PlaceJobs(workload, Cluster{Nodes: 0}, PlaceOptions{}); err == nil {
		t.Error("zero-node cluster accepted")
	}
	if _, err := PlaceJobs(workload, Cluster{Nodes: 1}, PlaceOptions{Policy: "nope"}); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestFacadeHeterogeneousCluster drives the mixed-fleet surface: the
// constructor counts out CPU and GPU nodes, NewP100 doubles as node
// hardware through NodeList, and a placed stream lands jobs on both
// hardware kinds with slowdowns >= 1.
func TestFacadeHeterogeneousCluster(t *testing.T) {
	workload, err := SyntheticWorkload(6, 1, []string{"lstm", "dcgan"}, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := PlaceJobs(workload, HeterogeneousCluster(1, 1), PlaceOptions{Policy: "model-aware"})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, j := range res.Jobs {
		kinds[j.Kind]++
		if j.Slowdown < 1-1e-9 {
			t.Errorf("job %s slowdown %.4f < 1", j.Name, j.Slowdown)
		}
	}
	if kinds["cpu"] == 0 || kinds["gpu"] == 0 {
		t.Errorf("model-aware left a hardware kind idle: %v", kinds)
	}

	explicit := Cluster{NodeList: []ClusterNode{{CPU: NewKNL()}, {GPU: NewP100()}}}
	res2, err := PlaceJobs(workload, explicit, PlaceOptions{Policy: "model-aware"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Render() != res2.Render() {
		t.Error("explicit NodeList fleet renders differently from the counted equivalent")
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	m := NewKNL()
	model := MustBuild(ResNet50)
	base, err := BaselineStep(model, m, 1, m.Cores)
	if err != nil {
		t.Fatal(err)
	}
	ours, err := TrainStep(model, m, AllStrategies())
	if err != nil {
		t.Fatal(err)
	}
	if ours.StepTimeNs >= base.StepTimeNs {
		t.Errorf("runtime (%.1fms) not faster than recommendation (%.1fms)",
			ours.StepTimeNs/1e6, base.StepTimeNs/1e6)
	}
}

func TestFacadeModels(t *testing.T) {
	if len(Models()) != 4 {
		t.Fatalf("Models() = %v, want the paper's four", Models())
	}
	if _, err := Build("VGG"); err == nil {
		t.Error("Build(unknown) succeeded")
	}
	for _, name := range Models() {
		model, err := Build(name)
		if err != nil {
			t.Fatal(err)
		}
		if model.Graph.Len() == 0 {
			t.Errorf("%s: empty graph", name)
		}
	}
}

func TestFacadeManualOptimize(t *testing.T) {
	m := NewKNL()
	model := MustBuild(DCGAN)
	cfg, res, err := ManualOptimize(model, m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cfg, "inter=") {
		t.Errorf("config string %q", cfg)
	}
	if res.StepTimeNs <= 0 {
		t.Error("empty result")
	}
}

func TestFacadeExperiments(t *testing.T) {
	if len(Experiments()) != 11 {
		t.Fatalf("Experiments() = %v", Experiments())
	}
	out, err := RunExperiment("table2", NewKNL())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table II") {
		t.Errorf("unexpected render: %q", out)
	}
	if _, err := RunExperiment("bogus", NewKNL()); err == nil {
		t.Error("RunExperiment(bogus) succeeded")
	}
}

func TestStrategyPresets(t *testing.T) {
	if c := Strategies12(); !c.Strategy1 || !c.Strategy2 || c.Strategy3 || c.Strategy4 {
		t.Errorf("Strategies12 = %+v", c)
	}
	if c := Strategies123(); !c.Strategy3 || c.Strategy4 {
		t.Errorf("Strategies123 = %+v", c)
	}
	if c := AllStrategies(); !c.Strategy4 {
		t.Errorf("AllStrategies = %+v", c)
	}
}

// TestFacadeCoTrain drives the multi-job surface end to end: short model
// names resolve, every arbiter runs the mix, slowdowns stay >= 1, and the
// job sweep renders byte-identical reports at any parallelism.
func TestFacadeCoTrain(t *testing.T) {
	m := NewKNL()
	for _, arb := range Arbiters() {
		res, err := CoTrain([]string{"dcgan", "lstm"}, m, AllStrategies(), arb)
		if err != nil {
			t.Fatalf("%s: %v", arb, err)
		}
		if len(res.Jobs) != 2 {
			t.Fatalf("%s: %d jobs, want 2", arb, len(res.Jobs))
		}
		for _, j := range res.Jobs {
			if j.Slowdown < 1-1e-9 {
				t.Errorf("%s: job %s slowdown %.4f < 1", arb, j.Name, j.Slowdown)
			}
		}
	}
	if _, err := CoTrain([]string{"vgg"}, m, AllStrategies(), "fair"); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := CoTrain([]string{"lstm"}, m, AllStrategies(), "nope"); err == nil {
		t.Error("unknown arbiter accepted")
	}

	grid := JobSweepGrid{Mixes: []JobMix{{Models: []string{DCGAN, LSTM}}}, Arbiters: []string{"srwf"}}
	serial, err := RunJobSweep(context.Background(), grid, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunJobSweep(context.Background(), grid, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s, p := serial[0].Result.Render(), parallel[0].Result.Render(); s != p {
		t.Errorf("sweep reports differ between parallelism levels:\n%s\nvs\n%s", s, p)
	}

	lstm := MustBuild(LSTM)
	rt := NewRuntime(m, AllStrategies())
	if err := rt.Profile(lstm.Graph); err != nil {
		t.Fatal(err)
	}
	res, err := RunCoJobs([]CoJob{{Name: "solo", Graph: lstm.Graph, Sched: rt}}, m, "fair")
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Slowdown != 1 {
		t.Errorf("single-job co-run slowdown %.4f, want exactly 1", res.Jobs[0].Slowdown)
	}
}

// TestFacadePreemptiveCluster drives the preemption surface end to end:
// trigger names are listed, a zero-firing preemptive run is byte-identical
// to the run-to-completion engine, and an armed run on a pinned-down fleet
// preempts without losing any job.
func TestFacadePreemptiveCluster(t *testing.T) {
	names := PreemptionTriggers()
	if len(names) != 4 || names[0] != "priority" || names[2] != "slo-at-risk" {
		t.Fatalf("PreemptionTriggers() = %v", names)
	}
	workload, err := SyntheticStepsWorkload(5, 1, []string{"lstm", "dcgan"}, 1e6, 3)
	if err != nil {
		t.Fatal(err)
	}
	fleet := HeterogeneousCluster(1, 1)
	opts := PlaceOptions{Policy: "model-aware"}
	rtc, err := PlaceJobs(workload, fleet, opts)
	if err != nil {
		t.Fatal(err)
	}
	none, err := RunPreemptiveCluster(workload, fleet, opts, "none")
	if err != nil {
		t.Fatal(err)
	}
	if rtc.Render() != none.Render() {
		t.Errorf("zero-trigger preemptive run differs from run-to-completion:\n%s\nvs\n%s",
			none.Render(), rtc.Render())
	}
	armed, err := RunPreemptiveCluster(workload, fleet, opts, "all")
	if err != nil {
		t.Fatal(err)
	}
	if len(armed.Jobs) != len(workload) {
		t.Fatalf("armed run placed %d jobs, want %d", len(armed.Jobs), len(workload))
	}
	for _, j := range armed.Jobs {
		if j.FinishNs <= 0 || j.Slowdown < 1-1e-9 {
			t.Errorf("armed job %s finish %v slowdown %.4f", j.Name, j.FinishNs, j.Slowdown)
		}
	}
	if _, err := RunPreemptiveCluster(workload, fleet, opts, "bogus"); err == nil {
		t.Error("bogus trigger spec accepted")
	}
}

// TestFacadeErrorPaths: the thin facade wrappers propagate bad input
// instead of swallowing it.
func TestFacadeErrorPaths(t *testing.T) {
	if _, err := RunCoJobs(nil, nil, "nope"); err == nil {
		t.Error("unknown arbiter accepted by RunCoJobs")
	}
	if _, err := CoTrain([]string{"vgg"}, nil, AllStrategies(), "fair"); err == nil {
		t.Error("unknown model accepted by CoTrain")
	}
	if _, err := CoTrain([]string{"lstm"}, nil, AllStrategies(), "nope"); err == nil {
		t.Error("unknown arbiter accepted by CoTrain")
	}
	if _, err := SyntheticStepsWorkload(0, 1, nil, 0, 2); err == nil {
		t.Error("zero-job stepped workload accepted")
	}
}

// TestFacadeStreamingPipeline drives the streaming surface end to end: a
// trace read through NewTraceReader replays through ReplayTrace and renders
// byte-identically to PlaceJobs over the same jobs, and a hand-built
// JobPipeline submits/ticks/drains with live snapshots.
func TestFacadeStreamingPipeline(t *testing.T) {
	const trace = "model,submit,steps\nlstm,0,1\ndcgan,0.002,2\nlstm,0.005,1\n"
	cfg := PipelineConfig{Cluster: Cluster{Nodes: 2}, Options: PlaceOptions{Policy: "spread"}}

	src, err := NewTraceReader(strings.NewReader(trace), TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := ReplayTrace(context.Background(), cfg, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := src.Stats(); st.Jobs != 3 || len(replayed.Jobs) != 3 {
		t.Fatalf("replay: stats %+v, %d jobs placed", st, len(replayed.Jobs))
	}

	src2, err := NewTraceReader(strings.NewReader(trace), TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := src2.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := PlaceJobs(jobs, cfg.Cluster, cfg.Options)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Render() != batch.Render() {
		t.Fatalf("in-order replay diverged from batch:\n%s\nvs:\n%s", replayed.Render(), batch.Render())
	}

	p, err := NewJobPipeline(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := p.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Tick(1e15); err != nil {
		t.Fatal(err)
	}
	p.Close()
	res, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()
	if snap.Completed != 3 || len(res.Jobs) != 3 {
		t.Fatalf("pipeline: snapshot %+v, %d jobs", snap, len(res.Jobs))
	}
	if _, err := NewJobPipeline(context.Background(), PipelineConfig{Cluster: Cluster{Nodes: 0}}); err == nil {
		t.Error("zero-node pipeline accepted")
	}
	if _, err := NewTraceReader(strings.NewReader("who\n1\n"), TraceOptions{}); err == nil {
		t.Error("headerless trace accepted")
	}
	if _, err := ResolveModel("resnet"); err != nil {
		t.Errorf("ResolveModel(resnet): %v", err)
	}
}

// TestFacadeSweepHelpers pins the profile-cache stats accessor.
func TestFacadeSweepHelpers(t *testing.T) {
	hits, misses := ProfileCacheStats()
	if hits < 0 || misses < 0 {
		t.Fatalf("cache stats went negative: %d/%d", hits, misses)
	}
}

// TestFacadeInferenceServing: the serving facade — inference workload
// generation, forward-only model building, sharing-mode constants, and a
// mixed-tenant run reporting per-class SLO metrics end to end.
func TestFacadeInferenceServing(t *testing.T) {
	requests, err := SyntheticInferenceWorkload(8, 3, []string{"dcgan"}, 1e6, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	if len(requests) != 8 {
		t.Fatalf("got %d requests, want 8", len(requests))
	}
	for i, r := range requests {
		if r.Class != ClassInference || r.SLONs != 50e6 {
			t.Fatalf("request %d is %+v, want inference with 50 ms SLO", i, r)
		}
	}
	if _, err := SyntheticInferenceWorkload(0, 3, nil, 1e6, 1e6); err == nil {
		t.Error("n=0 accepted")
	}

	m, err := BuildInferenceModel("dcgan", 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Params != 0 {
		t.Errorf("serving graph records %d optimizer params, want 0", m.Params)
	}
	if _, err := BuildInferenceModel("vgg", 4); err == nil {
		t.Error("unknown model accepted")
	}

	if SharingStreams != "streams" || SharingMPS != "mps" {
		t.Errorf("sharing constants %q/%q", SharingStreams, SharingMPS)
	}

	training := ClusterWorkload{
		{Name: "bg", Model: "lstm", ArrivalNs: 0, Steps: 2},
	}
	res, err := PlaceJobs(training.Merge(requests), Cluster{Nodes: 1}, PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.InferenceJobs != 8 || res.TrainingJobs != 1 {
		t.Fatalf("class split %d/%d, want 8/1", res.InferenceJobs, res.TrainingJobs)
	}
	if res.SLOAttainment < 0 || res.SLOAttainment > 1 {
		t.Errorf("attainment %v outside [0,1]", res.SLOAttainment)
	}
}
