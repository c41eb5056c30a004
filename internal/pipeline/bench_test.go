package pipeline

import (
	"context"
	"fmt"
	"io"
	"testing"

	"opsched/internal/place"
)

// genSource synthesizes an unbounded-style job stream one spec at a time —
// the Source shape a million-row trace reader has. Nothing is ever
// materialized: memory stays O(1) in the job count, which is the point of
// the replay benchmark.
type genSource struct {
	i, n   int
	gapNs  float64
	models []string
}

func (g *genSource) Next() (place.JobSpec, error) {
	if g.i >= g.n {
		return place.JobSpec{}, io.EOF
	}
	j := place.JobSpec{
		Model:     g.models[g.i%len(g.models)],
		ArrivalNs: float64(g.i) * g.gapNs,
		Steps:     1,
	}
	g.i++
	return j, nil
}

func benchCluster() place.Cluster { return place.Cluster{Nodes: 4} }

// benchWorkload is the closed workload the batch-vs-pipeline pair share.
func benchWorkload(b *testing.B, n int) place.Workload {
	b.Helper()
	w, err := place.Synthetic(n, 3, []string{"lstm", "dcgan"}, 8e6)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkBatchEngine is the closed run-to-completion loop the pipeline
// wraps — the baseline of the pair.
func BenchmarkBatchEngine(b *testing.B) {
	w := benchWorkload(b, 64)
	c := benchCluster()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := place.PlaceJobs(w, c, place.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineBatch drives the identical workload through the
// streaming pipeline; the delta over BenchmarkBatchEngine is what the
// pipeline adds: the Submit channel hop, the per-job check and clamp, and
// the live-metrics fold.
func BenchmarkPipelineBatch(b *testing.B) {
	w := benchWorkload(b, 64)
	c := benchCluster()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := replayWorkload(context.Background(), w, c, place.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineReplay streams generated jobs through Replay without
// ever holding the job slice — the sustained-throughput shape of replaying
// a production trace. The replay is explicitly unpaced (speed 0: virtual
// time only, never a wall-clock sleep) and says so in the sub-benchmark
// name, so the jobs/s figures in BENCH_*.json are comparable across PRs —
// a paced replay would measure the pacing clock, not the engine.
func BenchmarkPipelineReplay(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("jobs=%d/pacing=unpaced", n), func(b *testing.B) {
			if n > 10_000 && testing.Short() {
				b.Skip("100k replay is the full-suite scale gate; run without -short (scripts/bench.sh does)")
			}
			b.ReportAllocs()
			cfg := Config{Cluster: benchCluster()}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := &genSource{n: n, gapNs: 10e6, models: []string{"lstm", "dcgan"}}
				res, err := Replay(context.Background(), cfg, src, 0)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Jobs) != n {
					b.Fatalf("replayed %d of %d jobs", len(res.Jobs), n)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// inferSource synthesizes an unbounded-style serving stream one request at
// a time: tiny single-step inference specs under a per-request SLO, the
// Source shape a production request log has. Like genSource it holds O(1)
// memory whatever n is.
type inferSource struct {
	i, n   int
	gapNs  float64
	models []string
	sloNs  float64
}

func (g *inferSource) Next() (place.JobSpec, error) {
	if g.i >= g.n {
		return place.JobSpec{}, io.EOF
	}
	j := place.JobSpec{
		Model:     g.models[g.i%len(g.models)],
		Class:     place.ClassInference,
		ArrivalNs: float64(g.i) * g.gapNs,
		Steps:     1,
		SLONs:     g.sloNs,
	}
	g.i++
	return j, nil
}

// BenchmarkPipelineInferenceReplay streams generated inference requests
// through Replay on a mixed 2 KNL + 2 P100 fleet — dynamic batching,
// latency-class admission and per-class metrics all on the hot path. Like
// the training replay it runs unpaced (virtual time only) so the req/s
// figure measures the engine, not the arrival clock.
func BenchmarkPipelineInferenceReplay(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("requests=%d/pacing=unpaced", n), func(b *testing.B) {
			if n > 10_000 && testing.Short() {
				b.Skip("100k inference replay is the full-suite scale gate; run without -short (scripts/bench.sh does)")
			}
			b.ReportAllocs()
			cfg := Config{Cluster: place.Cluster{Nodes: 2, GPUs: 2}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := &inferSource{n: n, gapNs: 0.1e6, models: []string{"dcgan"}, sloNs: 100e6}
				res, err := Replay(context.Background(), cfg, src, 0)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Jobs) != n {
					b.Fatalf("replayed %d of %d requests", len(res.Jobs), n)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkPipelineFleet is the fleet-size regression guard of the
// pipeline's placement path: one model-aware stream of one-step LSTM/DCGAN
// jobs on 10k P100 nodes, placed by place.PlaceJobs (batch) and replayed
// through the pipeline (pipeline). At this fleet size any per-node work on
// a job's path is expensive, so placement work the pipeline adds on top of
// the engine's own shows up as a per-job gap between the two
// sub-benchmarks.
func BenchmarkPipelineFleet(b *testing.B) {
	if testing.Short() {
		b.Skip("10k-node fleet; run without -short")
	}
	w := place.MustSynthetic(3000, 7, []string{"lstm", "dcgan"}, 1e5)
	c := place.Cluster{GPUs: 10_000}
	opts := place.Options{Policy: "model-aware"}
	for _, tc := range []struct {
		name string
		run  func() (*place.Result, error)
	}{
		{"batch", func() (*place.Result, error) { return place.PlaceJobs(w, c, opts) }},
		{"pipeline", func() (*place.Result, error) { return replayWorkload(context.Background(), w, c, opts) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := tc.run()
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Jobs) != len(w) {
					b.Fatalf("placed %d of %d jobs", len(res.Jobs), len(w))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(w)), "ns/job")
		})
	}
}
