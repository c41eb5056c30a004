// Package multijob is the cross-job co-scheduling layer: it executes
// several independent training jobs — each a dataflow graph driven by its
// own per-job scheduler — concurrently on one hw.Machine through exec's
// one op-event loop.
//
// The paper's runtime tunes concurrency for one training job; its machine
// model (bandwidth contention, SMT sharing, core partitioning) is exactly
// what is needed to ask what happens when several jobs share a node. The
// multi-tenant scheduling literature (Yu et al., 2021; Gilman & Walls,
// 2021) observes that co-located jobs interfere in ways a per-job scheduler
// cannot see, so the design splits responsibility in two:
//
//   - each job keeps its own unmodified exec.Scheduler (the paper's runtime,
//     or a FIFO baseline) and sees only its own ready and running
//     operations — exactly what an uncoordinated per-job runtime knows;
//   - a cross-job Arbiter, one of a closed set of policies, is the claim
//     policy the loop consults once per scheduling event: which jobs claim
//     cores first and how many each may hold (fair-share budgets, strict
//     priority, or shortest-remaining-work-first over perfmodel
//     predictions, folded from the loop's completion records).
//
// Interference is not arbitrated away: the loop reprices every job's
// in-flight operations together, so memory-bandwidth saturation, mesh
// interference and SMT stacking between jobs genuinely slow each other
// down. CoTrain is SoloNs for every job followed by CoRun, and reports the
// per-job slowdown plus a Jain fairness index over solo-normalized
// progress. The solo baseline is the one-job co-run under the same core
// cap, so a lone job's slowdown is exactly 1. A caller that co-runs the
// same jobs many times (the cluster engine's CPU nodes) prices each solo
// baseline once and calls CoRun directly. SoloNs, CoTrain and CoRun all
// take the shared machine directly (nil means hw.NewKNL()).
package multijob

import (
	"fmt"
	"math"
	"strings"

	"opsched/internal/core"
	"opsched/internal/exec"
	"opsched/internal/graph"
	"opsched/internal/hw"
)

// Job is one training workload entering a co-scheduled run.
type Job struct {
	// Name labels the job in results; it need not be unique.
	Name string
	// Graph is the job's per-step dataflow graph.
	Graph *graph.Graph
	// Sched is the job's own scheduling policy. Runtime schedulers must be
	// profiled for Graph before CoTrain or CoRun (RuntimeJob does this).
	Sched exec.Scheduler
	// Weight is the job's fair-share weight; <= 0 or NaN means 1, and
	// weights above MaxWeight are rejected.
	Weight float64
	// Priority is the job's strict-priority rank; higher preempts lower in
	// the priority arbiter's claim order.
	Priority int
}

// RuntimeJob builds a Job running the paper's runtime under cfg on machine
// m, profiled for g (hill-climb profiles come from the process-wide
// perfmodel cache, so co-run and solo runs share them).
func RuntimeJob(name string, g *graph.Graph, m *hw.Machine, cfg core.Config) (Job, error) {
	rt := core.New(m, cfg)
	if err := rt.Profile(g); err != nil {
		return Job{}, fmt.Errorf("multijob: job %s: %w", name, err)
	}
	return Job{Name: name, Graph: g, Sched: rt}, nil
}

// FIFOJob builds a Job running the TensorFlow-style FIFO baseline.
func FIFOJob(name string, g *graph.Graph, interOp, intraOp int) Job {
	return Job{Name: name, Graph: g, Sched: &exec.FIFO{InterOp: interOp, IntraOp: intraOp, Place: hw.Shared}}
}

// JobResult is the outcome of one job inside a co-scheduled run.
type JobResult struct {
	// Name and Scheduler identify the job and its policy.
	Name      string
	Scheduler string
	// Ops is the number of operations the job executed.
	Ops int
	// SoloNs is the job's makespan running alone on the machine.
	SoloNs float64
	// MakespanNs is the job's makespan inside the co-run (all jobs start at
	// virtual time zero).
	MakespanNs float64
	// Slowdown is MakespanNs/SoloNs; contention and queueing make it >= 1.
	Slowdown float64
	// Records holds the job's per-operation execution records in completion
	// order. exec.CoRunning over every job's Records, concatenated, is the
	// co-run's co-running series.
	Records []exec.OpRecord
}

// Result is the outcome of co-training a set of jobs.
type Result struct {
	// Arbiter is the cross-job policy name.
	Arbiter string
	// Machine describes the shared hardware.
	Machine string
	// TotalNs is the co-run makespan (the last job's finish time).
	TotalNs float64
	// FairnessIndex is Jain's fairness index over each job's
	// solo-normalized progress rate SoloNs/MakespanNs: 1 when every job is
	// slowed equally, approaching 1/n when one job monopolizes the machine.
	FairnessIndex float64
	// Jobs holds per-job outcomes in input order.
	Jobs []JobResult
}

// Render formats the result as a deterministic report table: byte-identical
// output for identical inputs, whatever parallelism produced the Result.
func (r *Result) Render() string {
	nameW, schedW := len("job"), len("scheduler")
	for _, j := range r.Jobs {
		if len(j.Name) > nameW {
			nameW = len(j.Name)
		}
		if len(j.Scheduler) > schedW {
			schedW = len(j.Scheduler)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "co-train: %d jobs, arbiter=%s, %s\n", len(r.Jobs), r.Arbiter, r.Machine)
	fmt.Fprintf(&b, "  %-*s  %-*s  %5s  %10s  %10s  %8s\n",
		nameW, "job", schedW, "scheduler", "ops", "solo(ms)", "corun(ms)", "slowdown")
	for _, j := range r.Jobs {
		fmt.Fprintf(&b, "  %-*s  %-*s  %5d  %10.3f  %10.3f  %7.2fx\n",
			nameW, j.Name, schedW, j.Scheduler, j.Ops, j.SoloNs/1e6, j.MakespanNs/1e6, j.Slowdown)
	}
	fmt.Fprintf(&b, "total %.3f ms, fairness %.3f (Jain, solo-normalized progress)\n",
		r.TotalNs/1e6, r.FairnessIndex)
	return b.String()
}

// MaxWeight caps a job's fair-share weight at 2^20. The cap keeps every
// weight sum finite, so no fair-share budget divides an infinite weight by
// an infinite total. It takes nothing a policy could use: against a
// default-weight co-runner a weight stops mattering once it passes the
// core count, where the co-runner's share rounds below one core and is
// lifted to the one-core floor.
const MaxWeight = 1 << 20

// validateJobs sanity-checks a job set before execution.
func validateJobs(jobs []Job) error {
	if len(jobs) == 0 {
		return fmt.Errorf("multijob: no jobs")
	}
	for i, j := range jobs {
		if j.Name == "" {
			return fmt.Errorf("multijob: job %d has no name", i)
		}
		if j.Weight > MaxWeight {
			return fmt.Errorf("multijob: job %s has weight %v past the %v ceiling", j.Name, j.Weight, float64(MaxWeight))
		}
		if j.Sched == nil {
			return fmt.Errorf("multijob: job %s has nil scheduler", j.Name)
		}
		if j.Graph == nil {
			return fmt.Errorf("multijob: job %s has nil graph", j.Name)
		}
		if err := j.Graph.Validate(); err != nil {
			return fmt.Errorf("multijob: job %s: %w", j.Name, err)
		}
	}
	return nil
}

// weight returns the job's effective fair-share weight.
func (j Job) weight() float64 {
	if j.Weight <= 0 || math.IsNaN(j.Weight) {
		return 1
	}
	return j.Weight
}
