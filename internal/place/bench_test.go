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
// over a thousand-node (and, in full runs, a ten-thousand-node) GPU fleet
// through the sharded event loop with gang-signature memoization. The 20k ×
// 1k case must finish one iteration in well under a minute — the ISSUE 7
// acceptance bound — and the 100k × 10k case is the ROADMAP north star,
// skipped under -short because it holds a 10k-entry shard index hot for
// minutes. ReportAllocs pins the arena-reuse work: per-round allocations
// must not scale with the fleet.
func BenchmarkPlaceHuge(b *testing.B) {
	cases := []struct{ jobs, nodes int }{
		{20_000, 1_000},
		{100_000, 10_000},
	}
	for _, tc := range cases {
		b.Run(fmt.Sprintf("jobs=%d/gpus=%d", tc.jobs, tc.nodes), func(b *testing.B) {
			if tc.jobs > 20_000 && testing.Short() {
				b.Skip("100k × 10k is the full-suite north-star run; run without -short (scripts/bench.sh does)")
			}
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
		{Name: "lstm#0", Model: nn.LSTM, Priority: 1, Weight: 1, StepsLeft: 2},
		{Name: "dcgan#1", Model: nn.DCGAN, Weight: 1, StepsLeft: 1},
		{Name: "lstm@4#2", Model: InferKey(nn.LSTM, 4), Weight: 1, StepsLeft: 1, Class: ClassInference},
		{Name: "dcgan@2#3", Model: InferKey(nn.DCGAN, 2), Weight: 1, StepsLeft: 1, Class: ClassInference},
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
