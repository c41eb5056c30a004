package place

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"opsched/internal/core"
	"opsched/internal/gpu"
	"opsched/internal/hw"
	"opsched/internal/multijob"
	"opsched/internal/nn"
	"opsched/internal/perfmodel"
)

// allModelKeys lists every work key the engine prices: each training
// model, and each served model's inference key at every dynamic batch.
func allModelKeys() []string {
	var keys []string
	for _, model := range nn.Names() {
		keys = append(keys, model)
		for batch := 1; batch <= maxDynamicBatch; batch++ {
			keys = append(keys, InferKey(model, batch))
		}
	}
	return keys
}

// TestSharedModelValuesExact: every per-model value a runtime reads from
// the process-wide table equals a fresh derivation bit for bit, for every
// model key — the graph (signature and node count), a KNL runtime's solo
// makespan and predicted solo work, and a P100's graph work.
func TestSharedModelValuesExact(t *testing.T) {
	arb, err := multijob.NewArbiter("fair")
	if err != nil {
		t.Fatal(err)
	}
	m, d := hw.NewKNL(), gpu.NewP100()
	rt := buildRuntimes([]Node{{CPU: m}}, arb, true)[0].(*cpuRuntime)
	gpuRt := buildRuntimes([]Node{{GPU: d}}, arb, true)[0].(*gpuRuntime)

	for _, key := range allModelKeys() {
		g, fresh := modelGraph(key), buildModelGraph(key)
		if g.Signature() != fresh.Signature() || g.Len() != fresh.Len() {
			t.Errorf("%s: shared graph %s (%d ops), fresh %s (%d ops)",
				key, g.Signature(), g.Len(), fresh.Signature(), fresh.Len())
		}
		if modelGraph(key) != g {
			t.Errorf("%s: graph built twice", key)
		}
		mdl := rt.model(key)
		if mdl.err != nil {
			t.Fatalf("%s: %v", key, mdl.err)
		}
		job, err := multijob.RuntimeJob(key, buildModelGraph(key), hw.NewKNL(), core.AllStrategies())
		if err != nil {
			t.Fatal(err)
		}
		solo, err := multijob.SoloNs(job, hw.NewKNL())
		if err != nil {
			t.Fatal(err)
		}
		if mdl.soloNs != solo {
			t.Errorf("%s: shared solo makespan %v, fresh %v", key, mdl.soloNs, solo)
		}
		if got, want := rt.SoloWorkNs(key), multijob.PredictedSoloWorkNs(hw.NewKNL(), buildModelGraph(key)); got != want {
			t.Errorf("%s: shared solo work %v, fresh %v", key, got, want)
		}
		// A second runtime on an equal machine reads the same entry.
		other := buildRuntimes([]Node{{CPU: hw.NewKNL()}}, arb, true)[0].(*cpuRuntime)
		if other.model(key).job.Sched != mdl.job.Sched {
			t.Errorf("%s: an equal runtime profiled the job again", key)
		}
		if got, want := gpuRt.graphWork(key), d.PredictGraphWork(buildModelGraph(key)); got != want {
			t.Errorf("%s: shared P100 graph work %+v, fresh %+v", key, got, want)
		}
	}
}

// TestResetCacheDropsModelValues: engines share one graph per model key
// until perfmodel.ResetCache, after which a new engine builds its own.
func TestResetCacheDropsModelValues(t *testing.T) {
	newEngine := func() *Engine {
		t.Helper()
		e, err := NewEngine(Cluster{Nodes: 1, GPUs: 1}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a := newEngine()
	a.info(nn.LSTM)
	g := modelGraph(nn.LSTM)
	knl := a.rts[0].(*cpuRuntime)
	sched := knl.model(nn.LSTM).job.Sched
	b := newEngine()
	b.info(nn.LSTM)
	if modelGraph(nn.LSTM) != g || b.rts[0].(*cpuRuntime).model(nn.LSTM).job.Sched != sched {
		t.Fatal("a second engine rebuilt the shared per-model values")
	}
	perfmodel.ResetCache()
	c := newEngine()
	c.info(nn.LSTM)
	if modelGraph(nn.LSTM) == g {
		t.Error("after ResetCache a new engine reads the old graph")
	}
	if c.rts[0].(*cpuRuntime).model(nn.LSTM).job.Sched == sched {
		t.Error("after ResetCache a new engine reads the old profiled job")
	}
}

// multiStepMixed is BenchmarkPlaceMultiStepMixed's workload: 250
// multi-step training jobs of all four models plus 125 tight-SLO
// inference requests on 2 KNL + 2 P100, model-aware, every trigger armed.
func multiStepMixed(tb testing.TB) (Workload, Cluster, Options) {
	tb.Helper()
	train, err := SyntheticSteps(250, 3, nn.Names(), 100e6, 8)
	if err != nil {
		tb.Fatal(err)
	}
	w := train.Merge(MustSyntheticInference(125, 3, nn.Names(), 200e6, 50e6))
	return w, Cluster{Nodes: 2, GPUs: 2}, Options{Policy: "model-aware", Preempt: "all"}
}

// TestConcurrentPlaceJobsMatchSerial: four PlaceJobs runs at once, all
// building the process-wide per-model values from a cold table, place
// multiStepMixed exactly as a serial run does (run it under -race).
func TestConcurrentPlaceJobsMatchSerial(t *testing.T) {
	w, c, opts := multiStepMixed(t)
	want, err := PlaceJobs(w, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	perfmodel.ResetCache()
	const runs = 4
	got := make([]*Result, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := PlaceJobs(w, c, opts)
			if err != nil {
				t.Error(err)
			}
			got[i] = res
		}(i)
	}
	wg.Wait()
	for i, res := range got {
		if !reflect.DeepEqual(res, want) {
			t.Errorf("concurrent run %d differs from the serial run", i)
		}
	}
}

// TestSharedModelErrorNamesCaller: a model whose preparation fails caches
// the failure once per process, and every wave reports it under its own
// job's name — on the runtime that built the entry and on a fresh one.
func TestSharedModelErrorNamesCaller(t *testing.T) {
	arb, err := multijob.NewArbiter("fair")
	if err != nil {
		t.Fatal(err)
	}
	// A coreless machine profiles, but its solo step fails: every
	// decision gets zero threads.
	bad := func() NodeRuntime {
		m := hw.NewKNL()
		m.Cores = 0
		return buildRuntimes([]Node{{CPU: m}}, arb, true)[0]
	}
	first := bad()
	for _, tc := range []struct {
		rt   NodeRuntime
		name string
	}{{first, "first#0"}, {first, "second#1"}, {bad(), "third#2"}} {
		_, err := tc.rt.RunWave([]WaveJob{{Name: tc.name, Model: nn.LSTM, Weight: 1}})
		if err == nil {
			t.Fatalf("%s: a coreless machine ran a wave", tc.name)
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, "place: job "+tc.name+": ") {
			t.Errorf("%s: error %q does not name the job", tc.name, msg)
		}
		for _, other := range []string{"first#0", "second#1", "third#2"} {
			if other != tc.name && strings.Contains(msg, other) {
				t.Errorf("%s: error %q names job %s", tc.name, msg, other)
			}
		}
	}
}
