// Command preempt demonstrates the checkpoint/restart preemption
// subsystem on a mixed 2×KNL + 2×P100 fleet: four long multi-step
// background jobs pin every node down, then a burst of high-priority
// deadline jobs arrives mid-wave. Run to completion, the burst queues out
// the resident gangs and misses its deadlines; with the priority and
// deadline triggers armed, the waves are cut at their next per-job step
// boundary, the background jobs checkpoint (losing no completed step) and
// the burst starts generations earlier — the deadlines hold, the tail
// queueing delay collapses, and the makespan barely moves.
package main

import (
	"fmt"

	"opsched"
)

func workload() opsched.ClusterWorkload {
	w := opsched.ClusterWorkload{
		// Long background jobs, one per node once model-aware routing
		// settles: launch-bound LSTMs scale best on the KNL nodes,
		// convolution-heavy DCGANs on the P100s.
		{Name: "bg-lstm-0", Model: "lstm", ArrivalNs: 0.0e6, Steps: 4},
		{Name: "bg-lstm-1", Model: "lstm", ArrivalNs: 0.2e6, Steps: 4},
		{Name: "bg-dcgan-0", Model: "dcgan", ArrivalNs: 0.4e6, Steps: 8},
		{Name: "bg-dcgan-1", Model: "dcgan", ArrivalNs: 0.6e6, Steps: 8},
	}
	// The late burst: high-priority, deadline-carrying, single-step jobs
	// arriving while every node is mid-wave. Deadlines are reachable from
	// the next step boundary but not from the wave drains.
	burst := opsched.ClusterWorkload{
		{Name: "hot-dcgan-0", Model: "dcgan", ArrivalNs: 40e6, Priority: 5, Steps: 1, DeadlineNs: 75e6},
		{Name: "hot-dcgan-1", Model: "dcgan", ArrivalNs: 41e6, Priority: 5, Steps: 1, DeadlineNs: 76e6},
		{Name: "hot-lstm-0", Model: "lstm", ArrivalNs: 42e6, Priority: 5, Steps: 1, DeadlineNs: 110e6},
		{Name: "hot-lstm-1", Model: "lstm", ArrivalNs: 43e6, Priority: 5, Steps: 1, DeadlineNs: 111e6},
	}
	return append(w, burst...)
}

func main() {
	w := workload()
	fleet := opsched.Cluster{Nodes: 2, GPUs: 2}
	opts := opsched.PlaceOptions{Policy: "model-aware", Arbiter: "priority"}

	rtc, err := opsched.PlaceJobs(w, fleet, opts)
	if err != nil {
		panic(err)
	}
	armed := opts
	armed.Preempt = "priority+deadline"
	pre, err := opsched.PlaceJobs(w, fleet, armed)
	if err != nil {
		panic(err)
	}

	fmt.Println("=== run to completion (waves drain, the burst waits) ===")
	fmt.Println(rtc.Render())
	fmt.Println("=== preemptive (priority+deadline triggers, checkpoint at step boundaries) ===")
	fmt.Println(pre.Render())

	fmt.Printf("deadlines met:   %d/%d  ->  %d/%d\n",
		rtc.DeadlinesMet, rtc.DeadlinesTotal, pre.DeadlinesMet, pre.DeadlinesTotal)
	fmt.Printf("p99 queue (ms):  %.3f  ->  %.3f\n",
		rtc.QueuePercentileNs(0.99)/1e6, pre.QueuePercentileNs(0.99)/1e6)
	fmt.Printf("mean jct (ms):   %.3f  ->  %.3f\n", rtc.MeanJCTNs/1e6, pre.MeanJCTNs/1e6)
	fmt.Printf("makespan (ms):   %.3f  ->  %.3f  (%+.1f%%)\n",
		rtc.MakespanNs/1e6, pre.MakespanNs/1e6,
		100*(pre.MakespanNs-rtc.MakespanNs)/rtc.MakespanNs)
	fmt.Printf("preemptions:     %d (%d migrated, %d trigger firings), disruption %.3f ms\n",
		pre.Preemptions, pre.Migrations, pre.TriggerFirings, pre.DisruptionNs/1e6)
}
