package place

import (
	"fmt"
	"runtime"
	"testing"

	"opsched/internal/hw"
	"opsched/internal/multijob"
	"opsched/internal/nn"
	"opsched/internal/obs"
	"opsched/internal/perfmodel"
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
			// Start on a collected heap, as BenchmarkCPUWaveSim does: whether
			// the workload's garbage is still awaiting collection when the
			// timed run starts moves its allocs/op reading by two.
			runtime.GC()
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

// BenchmarkEngineAdmit times admission alone: Admit over 100k named,
// canonical-model one-step jobs into a fresh engine, with nothing placed
// or executed. It is the admission layer's own cost, which each job's
// record write and the job table's segment allocations make up; B/job is
// what one admitted job costs in heap bytes.
func BenchmarkEngineAdmit(b *testing.B) {
	const jobs = 100_000
	specs := admitSpecs(jobs)
	var ms runtime.MemStats
	var bytes uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := NewEngine(Cluster{Nodes: 4}, Options{})
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		b.StartTimer()
		for _, sp := range specs {
			if _, err := e.Admit(sp); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		bytes += ms.TotalAlloc - before
		b.StartTimer()
	}
	b.ReportMetric(float64(bytes)/float64(jobs)/float64(b.N), "B/job")
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
	w, c, opts := multiStepMixed(b)

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

// BenchmarkPlacePileUp is the cross-job arbiter at scale: 200 one-step
// LSTM/DCGAN jobs arriving at the same instant, priority i%3, on 4 KNL
// nodes under model-aware placement, once per arbiter. A CPU wave
// co-runs up to one job per core, so the cost is the multijob engine's
// scheduling events, each of which orders the wave's active jobs once.
// A claim order re-sorted per job rather than per event would make the
// priority and srwf cases here about ten times slower.
func BenchmarkPlacePileUp(b *testing.B) {
	const jobs = 200
	w := make(Workload, jobs)
	for i := range w {
		model := nn.LSTM
		if i%2 == 1 {
			model = nn.DCGAN
		}
		w[i] = JobSpec{Model: model, Priority: i % 3, Weight: 1}
	}
	for _, arb := range multijob.Arbiters() {
		b.Run("arbiter="+arb, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := PlaceJobs(w, Cluster{Nodes: 4}, Options{Policy: "model-aware", Arbiter: arb})
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

// cpuWaveBench is the CPU wave benchmarks' fixture: a fixed mixed KNL gang
// of two training jobs and two inference requests, and a constructor of
// fresh memo-free CPU runtimes.
func cpuWaveBench(b *testing.B) (gang []WaveJob, newRuntime func() NodeRuntime) {
	arb, err := multijob.NewArbiter("fair")
	if err != nil {
		b.Fatal(err)
	}
	m := hw.NewKNL()
	newRuntime = func() NodeRuntime {
		return buildRuntimes([]Node{{CPU: m}}, arb, true)[0]
	}
	gang = []WaveJob{
		{Name: "lstm#0", Model: nn.LSTM, Priority: 1, Weight: 1},
		{Name: "dcgan#1", Model: nn.DCGAN, Weight: 1},
		{Name: "lstm@4#2", Model: InferKey(nn.LSTM, 4), Weight: 1, Class: ClassInference},
		{Name: "dcgan@2#3", Model: InferKey(nn.DCGAN, 2), Weight: 1, Class: ClassInference},
	}
	// An untimed wave builds the graphs and fills the process-wide
	// profile cache and per-model values, as a steady replay has.
	if _, err := newRuntime().RunWave(gang); err != nil {
		b.Fatal(err)
	}
	return gang, newRuntime
}

// BenchmarkCPUWaveSim prices one steady-state wave-memo miss: the
// cpuWaveBench gang simulated fresh through the engine's CPU wave path
// (memo off) on a runtime whose per-model cache is warm, as it is for
// nearly every miss of a replay. Each iteration pays the multi-job co-run
// alone: the profiled runtime jobs and their solo makespans come from the
// cache. The allocs/op gate keeps per-operation-class facts from being
// re-derived for every job and a co-run's scheduling rounds from
// allocating their scheduler view and arbiter order.
func BenchmarkCPUWaveSim(b *testing.B) {
	gang, newRuntime := cpuWaveBench(b)
	rt := newRuntime()
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

// BenchmarkCPUWaveSimCold prices the first wave of BenchmarkCPUWaveSim's
// gang on a fresh runtime every iteration. The fresh runtime's front maps
// are empty, but the profiled runtime jobs and solo makespans it fills
// them from are already in the process-wide table, as they are for every
// engine but a process's first; the iteration pays those lookups and the
// co-run. Its distance from BenchmarkCPUWaveSim is what a new engine pays
// per model key; BenchmarkModelPrepareCold is what the first one pays.
func BenchmarkCPUWaveSimCold(b *testing.B) {
	gang, newRuntime := cpuWaveBench(b)
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := newRuntime().RunWave(gang)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Jobs) != len(gang) {
			b.Fatalf("wave priced %d jobs, want %d", len(res.Jobs), len(gang))
		}
	}
}

// BenchmarkModelPrepareCold prepares one CPU model key from a cold process
// every iteration: perfmodel.ResetCache, then the LSTM training graph
// built, hill-climb profiled into a runtime job and its solo step run on
// KNL. It records what the first engine in a process still pays per model
// key, now that every later engine reads these values from the
// process-wide table.
func BenchmarkModelPrepareCold(b *testing.B) {
	k := cpuModelKey{*hw.NewKNL(), nn.LSTM}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perfmodel.ResetCache()
		if mdl := k.prepare(); mdl.err != nil || mdl.soloNs <= 0 {
			b.Fatalf("prepared %s: solo %v, err %v", k.model, mdl.soloNs, mdl.err)
		}
	}
}
