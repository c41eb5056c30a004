// Command inference demonstrates the inference job class on a mixed
// 2×KNL + 2×P100 fleet: four long multi-step training jobs pin every node
// down, then a bursty open-loop serving tenant (tiny single-step DCGAN
// generator requests under a per-request latency SLO) arrives on top. Run
// to completion, the requests queue out the resident training gangs and
// blow their SLOs; with the slo-at-risk trigger armed, each at-risk
// arrival cuts its node's wave at the next step boundary, the training
// jobs checkpoint (losing no completed step), and the requests jump the
// relaunch as latency-class admissions — same-model requests folding into
// dynamic batches — so the SLOs hold while training merely stretches.
package main

import (
	"fmt"

	"opsched"
)

// The serving tenant's per-request latency objective: comfortably above
// one training step (the wave-cut granularity — up to ~50 ms for an LSTM
// round on a P100) plus the request's own sub-millisecond forward pass,
// far below a training wave's full multi-step drain.
const sloMs = 70

func workload() opsched.ClusterWorkload {
	// Long background training, one job per node under the spread policy
	// (which keeps every node pinned — the contention the serving tenant
	// then runs into).
	training := opsched.ClusterWorkload{
		{Name: "bg-lstm-0", Model: "lstm", ArrivalNs: 0.0e6, Steps: 10},
		{Name: "bg-lstm-1", Model: "lstm", ArrivalNs: 0.2e6, Steps: 10},
		{Name: "bg-dcgan-0", Model: "dcgan", ArrivalNs: 0.4e6, Steps: 10},
		{Name: "bg-dcgan-1", Model: "dcgan", ArrivalNs: 0.6e6, Steps: 10},
	}
	// The serving tenant: a bursty open-loop stream of DCGAN generator
	// requests (~0.6 ms forward passes) at a ~1 ms calm-phase gap, every
	// request under the same SLO. The stream draws from its own seed
	// stream, so the training arrivals above are untouched by it.
	requests, err := opsched.SyntheticInferenceWorkload(64, 7, []string{"dcgan"}, 1e6, sloMs*1e6)
	if err != nil {
		panic(err)
	}
	return training.Merge(requests)
}

func main() {
	w := workload()
	fleet := opsched.Cluster{Nodes: 2, GPUs: 2}
	opts := opsched.PlaceOptions{Policy: "spread", Arbiter: "fair"}

	rtc, err := opsched.PlaceJobs(w, fleet, opts)
	if err != nil {
		panic(err)
	}
	armed := opts
	armed.Preempt = "slo-at-risk"
	pre, err := opsched.PlaceJobs(w, fleet, armed)
	if err != nil {
		panic(err)
	}

	fmt.Println("=== run to completion (requests wait out the training waves) ===")
	fmt.Println(rtc.Render())
	fmt.Println("=== preemptive (slo-at-risk trigger, latency-class admission) ===")
	fmt.Println(pre.Render())

	fmt.Printf("slo attainment:    %d/%d (%.1f%%)  ->  %d/%d (%.1f%%)\n",
		rtc.SLOMet, rtc.SLOTotal, 100*rtc.SLOAttainment,
		pre.SLOMet, pre.SLOTotal, 100*pre.SLOAttainment)
	fmt.Printf("inference p99 jct: %.3f ms  ->  %.3f ms (slo %d ms)\n",
		rtc.InferP99JCTNs/1e6, pre.InferP99JCTNs/1e6, sloMs)
	fmt.Printf("goodput:           %.1f req/s  ->  %.1f req/s\n",
		rtc.GoodputPerSec, pre.GoodputPerSec)
	fmt.Printf("training p99 jct:  %.3f ms  ->  %.3f ms\n",
		rtc.TrainP99JCTNs/1e6, pre.TrainP99JCTNs/1e6)
	fmt.Printf("makespan (ms):     %.3f  ->  %.3f  (%+.1f%%)\n",
		rtc.MakespanNs/1e6, pre.MakespanNs/1e6,
		100*(pre.MakespanNs-rtc.MakespanNs)/rtc.MakespanNs)
	fmt.Printf("preemptions:       %d (%d migrated, %d trigger firings), disruption %.3f ms\n",
		pre.Preemptions, pre.Migrations, pre.TriggerFirings, pre.DisruptionNs/1e6)
}
