// Corun: reproduce the paper's Table III motivation study — three ways to
// run a Conv2DBackpropFilter / Conv2DBackpropInput pair — and then show the
// same decision being made automatically by the runtime inside a whole
// DCGAN training step.
package main

import (
	"fmt"
	"log"

	"opsched"
	"opsched/internal/exec"
	"opsched/internal/graph"
	"opsched/internal/hw"
	"opsched/internal/op"
)

func main() {
	machine := opsched.NewKNL()

	// --- The standalone pair of Table III ---
	pair := func() *graph.Graph {
		g := graph.New("pair")
		g.Add(op.Conv(op.Conv2DBackpropFilter, 32, 8, 8, 2048, 1, 2048, 1), "cbf")
		g.Add(op.Conv(op.Conv2DBackpropInput, 32, 8, 8, 2048, 1, 2048, 1), "cbi")
		return g
	}
	run := func(label string, s exec.Scheduler) float64 {
		res, err := exec.Run(pair(), s, machine)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-32s %.1f ms\n", label, res.StepTimeNs/1e6)
		return res.StepTimeNs
	}
	fmt.Println("Table III study — CBF+CBI at (32,8,8,2048):")
	serial := run("serial, 68 threads each", &exec.FIFO{InterOp: 1, IntraOp: 68, Place: hw.Shared})
	hyper := run("co-run on hyper-threads (68+68)", &exec.FIFO{InterOp: 2, IntraOp: 68, Place: hw.Shared})
	split := run("co-run, cores split 34+34", &exec.FIFO{InterOp: 2, IntraOp: 34, Place: hw.Shared, Pinned: true})
	fmt.Printf("  speedups: hyper %.2fx, split %.2fx (paper: 1.03x / 1.38x)\n\n", serial/hyper, serial/split)

	// --- The runtime doing it automatically on a full workload ---
	model := opsched.MustBuild(opsched.DCGAN)
	rt := opsched.NewRuntime(machine, opsched.AllStrategies())
	res, err := rt.RunStep(model.Graph)
	if err != nil {
		log.Fatal(err)
	}
	// The co-running count at each of the 6000 launches and completions in
	// the middle of the step, as in the paper's Figure 4.
	series := exec.CoRunning(res.Records)
	if n := 6000; len(series) > n {
		series = series[(len(series)-n)/2:][:n]
	}
	sum, peak := 0.0, 0
	for _, c := range series {
		sum += float64(c)
		peak = max(peak, c)
	}
	fmt.Printf("DCGAN step under the runtime: %.1f ms, avg co-running ops %.2f (max %d)\n",
		res.StepTimeNs/1e6, sum/float64(len(series)), peak)
}
