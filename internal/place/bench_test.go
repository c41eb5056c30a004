package place

import (
	"fmt"
	"runtime"
	"testing"

	"opsched/internal/core"
	"opsched/internal/graph"
	"opsched/internal/hw"
	"opsched/internal/multijob"
	"opsched/internal/nn"
	"opsched/internal/obs"
)

// BenchmarkPlaceLargeStream is the scale-hardening benchmark: a ≥1000-job
// stream placed onto GPU fleets of growing size. Before the wave-start
// min-heap the event loop rescanned every node's queue per event —
// O(jobs × nodes) work per event, quadratic over a run — so doubling the
// fleet slowed every event down; with the heap plus incremental per-node
// aggregates each event costs O(log nodes) beyond its own wave, and the
// 64-node fleet places the same stream at nearly the 8-node per-job cost.
// GPU nodes keep the wave simulations analytic so the benchmark measures
// the event loop, not multijob co-training.
func BenchmarkPlaceLargeStream(b *testing.B) {
	for _, nodes := range []int{8, 64} {
		for _, jobs := range []int{1000, 2000} {
			w := MustSynthetic(jobs, 7, []string{nn.LSTM, nn.DCGAN}, 1e5)
			b.Run(fmt.Sprintf("jobs=%d/gpus=%d", jobs, nodes), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := PlaceJobs(w, Cluster{GPUs: nodes}, Options{Policy: "model-aware"})
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Jobs) != jobs {
						b.Fatalf("placed %d jobs, want %d", len(res.Jobs), jobs)
					}
				}
			})
		}
	}
}

// BenchmarkPlaceHuge is the service-scale gate: tens of thousands of jobs
// over a thousand-node and a ten-thousand-node GPU fleet through the event
// loop with wave memoization. The 100k × 10k case is place-fleet's shape:
// the placement scan stops at the first idle node, so it runs in about a
// second and is gated under -short too. ReportAllocs pins the arena-reuse
// work: per-round allocations must not scale with the fleet.
func BenchmarkPlaceHuge(b *testing.B) {
	cases := []struct{ jobs, nodes int }{
		{20_000, 1_000},
		{100_000, 10_000},
	}
	for _, tc := range cases {
		b.Run(fmt.Sprintf("jobs=%d/gpus=%d", tc.jobs, tc.nodes), func(b *testing.B) {
			w := MustSynthetic(tc.jobs, 7, []string{nn.LSTM, nn.DCGAN}, 1e5)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := PlaceJobs(w, Cluster{GPUs: tc.nodes}, Options{Policy: "model-aware"})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Jobs) != tc.jobs {
					b.Fatalf("placed %d jobs, want %d", len(res.Jobs), tc.jobs)
				}
			}
			b.ReportMetric(float64(tc.jobs)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkPlaceLargeStreamObs is BenchmarkPlaceLargeStream's 1000×8 case
// with the full observability layer attached — metrics registry and
// tracer both live. Its distance from the obs-off numbers is the recorded
// cost of observing; the obs-off benchmarks themselves are gated at zero
// added allocations, so this one exists to keep the enabled cost visible,
// not to bound it.
func BenchmarkPlaceLargeStreamObs(b *testing.B) {
	w := MustSynthetic(1000, 7, []string{nn.LSTM, nn.DCGAN}, 1e5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := &obs.Observer{Metrics: obs.NewRegistry(), Tracer: obs.NewTracer()}
		res, err := PlaceJobs(w, Cluster{GPUs: 8}, Options{Policy: "model-aware", Obs: o})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Jobs) != 1000 || o.Tracer.Len() == 0 {
			b.Fatalf("placed %d jobs, traced %d events", len(res.Jobs), o.Tracer.Len())
		}
	}
}

// BenchmarkPlaceMultiStepMixed places one fixed, seeded trace of the kind
// where wave simulation dominates: 250 multi-step (1-8 steps) training
// jobs of all four models plus 125 tight-SLO inference requests, on 2 KNL
// + 2 P100 under model-aware placement with every preemption trigger
// armed. Preemption keeps re-forming gangs, so its cost tracks how often
// the wave memo re-prices a gang it has already simulated. An untimed run
// with metrics attached warms the profile cache and reads the memo's hit
// rate, which the benchmark reports as memo_hit_rate; the timed runs
// observe nothing.
func BenchmarkPlaceMultiStepMixed(b *testing.B) {
	train, err := SyntheticSteps(250, 3, nn.Names(), 100e6, 8)
	if err != nil {
		b.Fatal(err)
	}
	w := train.Merge(MustSyntheticInference(125, 3, nn.Names(), 200e6, 50e6))
	c := Cluster{Nodes: 2, GPUs: 2}
	opts := Options{Policy: "model-aware", Preempt: "all"}

	reg := obs.NewRegistry()
	warm := opts
	warm.Obs = &obs.Observer{Metrics: reg}
	if _, err := PlaceJobs(w, c, warm); err != nil {
		b.Fatal(err)
	}
	hits := reg.Counter("opsched_engine_wave_memo_hits_total", "").Value()
	misses := reg.Counter("opsched_engine_wave_memo_misses_total", "").Value()
	if misses == 0 {
		b.Fatal("no wave was simulated")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := PlaceJobs(w, c, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Jobs) != len(w) {
			b.Fatalf("placed %d jobs, want %d", len(res.Jobs), len(w))
		}
	}
	b.ReportMetric(float64(len(w))*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
	b.ReportMetric(float64(hits)/float64(hits+misses), "memo_hit_rate")
}

// BenchmarkPlaceHeteroStream exercises the mixed-fleet path end to end —
// CPU waves through multijob co-training next to GPU stream waves — at a
// smoke-test size.
func BenchmarkPlaceHeteroStream(b *testing.B) {
	w := MustSynthetic(8, 7, []string{nn.LSTM, nn.DCGAN}, 1e6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlaceJobs(w, Cluster{Nodes: 1, GPUs: 1}, Options{Policy: "model-aware"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCPUWaveSim prices one wave-memo miss: a fixed mixed KNL gang of
// two training jobs and two inference requests simulated fresh through the
// engine's CPU wave path (memo off), with graphs built and hill-climb
// profiles cached beforehand as they are in a steady replay. Each iteration
// pays a wave's per-job set-up — runtimes profiled from the cache, their
// Strategy-3 tables looked up — plus the multi-job co-run itself; the
// allocs/op gate keeps per-operation-class facts from being re-derived for
// every job.
func BenchmarkCPUWaveSim(b *testing.B) {
	arb, err := multijob.NewArbiter("fair")
	if err != nil {
		b.Fatal(err)
	}
	graphs := make(map[string]*graph.Graph)
	graphFor := func(model string) *graph.Graph {
		if g, ok := graphs[model]; ok {
			return g
		}
		g := modelGraph(model)
		graphs[model] = g
		return g
	}
	rt := buildRuntimes([]Node{{CPU: hw.NewKNL()}}, arb, core.AllStrategies(), graphFor, true)[0]
	gang := []WaveJob{
		{Name: "lstm#0", Model: nn.LSTM, Priority: 1, Weight: 1},
		{Name: "dcgan#1", Model: nn.DCGAN, Weight: 1},
		{Name: "lstm@4#2", Model: InferKey(nn.LSTM, 4), Weight: 1, Class: ClassInference},
		{Name: "dcgan@2#3", Model: InferKey(nn.DCGAN, 2), Weight: 1, Class: ClassInference},
	}
	if _, err := rt.RunWave(gang); err != nil {
		b.Fatal(err)
	}
	// Start the timed waves on a collected heap: fewer collections land
	// inside them, which steadies the allocs/op reading.
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rt.RunWave(gang)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Jobs) != len(gang) {
			b.Fatalf("wave priced %d jobs, want %d", len(res.Jobs), len(gang))
		}
	}
}
