// Serve: the placement engine as a streaming service. A CSV job trace
// (the Philly/Helios shape) streams row by row through the pipeline — no
// job slice is ever materialized — whose one goroutine checks, clamps and
// places each job and publishes live queue/JCT percentile snapshots
// between completions. When the trace ends, the END flag drains every
// in-flight job and seals the placement report.
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
	fmt.Print(res.Render())
}
