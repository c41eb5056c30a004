// Serve: the placement engine as a streaming service. A CSV job trace
// (the Philly/Helios shape) streams row by row through the
// admission→execution→metrics pipeline — no job slice is ever
// materialized — while the metrics stage publishes live queue/JCT
// percentile snapshots between completions. When the trace ends, the END
// flag drains every stage in order and the sealed placement report is
// byte-identical to the batch engine fed the same jobs: the simulator and
// the service share one engine, so there is nothing to keep in sync.
//
// The run is deterministic: replay never ticks the virtual clock from
// wall time, snapshots fire on completion counts, and unknown trace
// models hash stably onto the built-in palette.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"

	"opsched"
)

func main() {
	trace, err := os.ReadFile("trace.csv")
	if err != nil {
		log.Fatal(err)
	}

	// Stream the trace through a pipeline over a 2-node KNL cluster,
	// compressing the two trace minutes 400× so the demo retires quickly.
	// Snapshots print after every 2nd completion — the live view a
	// service operator would watch.
	traceOpts := opsched.TraceOptions{Compress: 400}
	cfg := opsched.PipelineConfig{
		Cluster:       opsched.Cluster{Nodes: 2},
		Options:       opsched.PlaceOptions{Policy: "model-aware"},
		SnapshotEvery: 2,
		OnSnapshot:    func(s opsched.StreamSnapshot) { fmt.Println("live:", s) },
	}

	fmt.Println("replaying trace.csv through the streaming pipeline:")
	src, err := opsched.NewTraceReader(bytes.NewReader(trace), traceOpts)
	if err != nil {
		log.Fatal(err)
	}
	res, err := opsched.ReplayTrace(context.Background(), cfg, src, 0)
	if err != nil {
		log.Fatal(err)
	}
	st := src.Stats()
	fmt.Printf("trace: %d rows -> %d jobs (%d out-of-order, %d unknown models mapped)\n\n",
		st.Rows, st.Jobs, st.OutOfOrder, st.MappedModels)
	fmt.Println(res.Render())

	// The equivalence the pipeline is built around: the same jobs through
	// the closed batch loop and through the streaming pipeline's batch
	// wrapper render the identical report, byte for byte. (The replay
	// above differs in exactly one way: live admission clamps j3's
	// out-of-order arrival forward, where a closed workload is sorted up
	// front.)
	src2, err := opsched.NewTraceReader(bytes.NewReader(trace), traceOpts)
	if err != nil {
		log.Fatal(err)
	}
	jobs, err := src2.ReadAll()
	if err != nil {
		log.Fatal(err)
	}
	batch, err := opsched.PlaceJobs(jobs, cfg.Cluster, cfg.Options)
	if err != nil {
		log.Fatal(err)
	}
	streamed, err := opsched.PlaceJobsStreamed(context.Background(), jobs, cfg.Cluster, cfg.Options)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch and pipeline engines render identically: %v\n",
		batch.Render() == streamed.Render())
}
