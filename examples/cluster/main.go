// Cluster: place a stream of training jobs onto a multi-node cluster and
// compare the placement policies — first on identical KNL nodes, then on a
// heterogeneous KNL + P100 fleet.
//
// The scenario is the datacenter shape the paper's §V gestures at: jobs
// arrive over time — short LSTMs next to mid-size DCGANs, some carrying
// deadlines — and a placement engine assigns each to a node. Each CPU node
// gang-schedules its resident jobs through the multi-job co-scheduling
// engine (so co-located jobs genuinely slow each other down); each GPU
// node co-runs one job per stream through the occupancy model of §VII.
// The whole run advances on one virtual cluster clock.
//
// Three policies compete:
//
//	binpack      consolidate onto the busiest node with spare capacity
//	spread       classic least-loaded balancing
//	model-aware  minimize predicted finish time, priced per node hardware
//
// On the mixed fleet the model-aware policy routes each model to the
// hardware it scales best on: the launch-bound LSTM (hundreds of tiny
// cells) stays on the manycore nodes while the convolution-heavy DCGAN
// lands on the GPUs — the Section VII asymmetry turned into a placement
// decision. The run then scales the same workload across node mixes
// through the parallel sweep engine.
package main

import (
	"context"
	"fmt"
	"log"

	"opsched"
)

func main() {
	// A deterministic 8-job stream: LSTM/DCGAN alternating, arrivals
	// roughly every 2 ms, every fourth job with a deadline.
	workload, err := opsched.SyntheticWorkload(8, 1, []string{"lstm", "dcgan"}, 2e6)
	if err != nil {
		log.Fatal(err)
	}
	cluster := opsched.Cluster{Nodes: 4}

	fmt.Println("8-job stream over 4 KNL nodes, one policy at a time:")
	for _, policy := range opsched.PlacementPolicies() {
		res, err := opsched.PlaceJobs(workload, cluster, opsched.PlaceOptions{Policy: policy})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res.Render())
	}

	// The same stream on a heterogeneous fleet: two KNL nodes plus two
	// P100 nodes. The model-aware policy is the only one that sees the
	// hardware — watch the hw column split LSTM onto cpu and DCGAN onto
	// gpu.
	fmt.Println("the same stream on 2 KNL + 2 P100 nodes (model-aware):")
	hetero, err := opsched.PlaceJobs(workload, opsched.Cluster{Nodes: 2, GPUs: 2},
		opsched.PlaceOptions{Policy: "model-aware"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(hetero.Render())

	// The same workload across node mixes, every policy, through the
	// sweep pool: cells come back in deterministic grid order whatever the
	// parallelism.
	grid := opsched.ClusterSweepGrid{
		Workloads: []opsched.NamedWorkload{{Name: "stream8", Jobs: workload}},
		Sizes:     []int{2, 4},
		GPUs:      []int{0, 2},
	}
	cells, err := opsched.RunClusterSweep(context.Background(), grid, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("policy × node-mix summary (same stream):")
	fmt.Printf("  %-12s  %5s  %5s  %12s  %12s  %8s\n", "policy", "cpus", "gpus", "makespan(ms)", "mean jct(ms)", "fairness")
	for _, c := range cells {
		fmt.Printf("  %-12s  %5d  %5d  %12.3f  %12.3f  %8.3f\n",
			c.Policy, c.Nodes, c.GPUs, c.Result.MakespanNs/1e6, c.Result.MeanJCTNs/1e6, c.Result.FairnessIndex)
	}
}
