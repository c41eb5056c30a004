package multijob

import (
	"cmp"
	"fmt"
	"slices"

	"opsched/internal/core"
	"opsched/internal/exec"
	"opsched/internal/graph"
	"opsched/internal/hw"
	"opsched/internal/perfmodel"
	"opsched/internal/stats"
)

// jobState is one job mid-run as the arbiter sees it: the progress
// accounting it orders jobs by.
type jobState struct {
	Job
	workNs        []float64 // predicted solo work per node, by NodeID; shared, read-only
	totalWork     float64
	remainingWork float64 // predicted solo time of the unfinished operations
	seen          int     // completion records already folded into remainingWork
	key           float64 // the arbiter's sort key this scheduling event
}

// active reports whether the job still has operations to finish.
func (j *jobState) active() bool { return j.seen < j.Graph.Len() }

// progress is the fraction of the job's predicted work already retired, in
// [0,1] — what the fair-share arbiter equalizes.
func (j *jobState) progress() float64 {
	if j.totalWork <= 0 {
		return 1
	}
	return (j.totalWork - j.remainingWork) / j.totalWork
}

// SoloNs runs job alone on machine m (nil means hw.NewKNL()) under its own
// scheduler and returns its makespan: the slowdown baseline CoRun divides
// by. It is the one-job co-run, capped at every core — a lone job's cap
// under every arbiter at any admissible weight and priority — so CoRun of
// that job alone finishes at exactly this makespan, and the cluster
// engine's CPU nodes answer a one-job wave from it without co-running. It
// differs from exec.Run only where the scheduler oversubscribes the
// machine. The value depends only on the job's graph, scheduler and m, so
// callers that co-run the same job many times may compute it once.
func SoloNs(job Job, m *hw.Machine) (float64, error) {
	if err := validateJobs([]Job{job}); err != nil {
		return 0, err
	}
	if m == nil {
		m = hw.NewKNL()
	}
	solo := []exec.Job{{Name: job.Name, Graph: job.Graph, Sched: job.Sched}}
	runs, err := exec.CoRun(solo, m, func(_ []exec.Result, dst []exec.Claim) []exec.Claim {
		return append(dst, exec.Claim{Cap: m.Cores})
	})
	if err != nil {
		return 0, err
	}
	return runs[0].StepTimeNs, nil
}

// CoTrain executes one training step of every job concurrently on machine
// m (nil means hw.NewKNL()) under the given cross-job arbiter: it prices
// every job's solo baseline with SoloNs, then co-runs them through CoRun.
// Execution is fully deterministic.
func CoTrain(jobs []Job, arb Arbiter, m *hw.Machine) (*Result, error) {
	if err := validateJobs(jobs); err != nil {
		return nil, err
	}
	if m == nil {
		m = hw.NewKNL()
	}
	solos := make([]float64, len(jobs))
	for i, job := range jobs {
		s, err := SoloNs(job, m)
		if err != nil {
			return nil, err
		}
		solos[i] = s
	}
	return CoRun(jobs, solos, arb, m)
}

// CoRun co-runs one training step of every job on machine m (nil means
// hw.NewKNL()) from a common virtual time zero under the given cross-job
// arbiter. solos[i] is job i's solo makespan on m (SoloNs), the baseline
// its slowdown and the fairness index are priced against. Execution is
// fully deterministic.
func CoRun(jobs []Job, solos []float64, arb Arbiter, m *hw.Machine) (*Result, error) {
	if err := validateJobs(jobs); err != nil {
		return nil, err
	}
	if len(solos) != len(jobs) {
		return nil, fmt.Errorf("multijob: %d solo baselines for %d jobs", len(solos), len(jobs))
	}
	if !arb.valid() {
		return nil, fmt.Errorf("multijob: unknown arbiter %s (have %v)", arb.Name(), Arbiters())
	}
	if m == nil {
		m = hw.NewKNL()
	}

	p := &policy{m: m, arb: arb, js: make([]jobState, len(jobs))}
	ej := make([]exec.Job, len(jobs))
	for i, job := range jobs {
		j := &p.js[i]
		j.Job, j.workNs = job, predictedWork(m, job.Graph)
		for _, w := range j.workNs {
			j.remainingWork += w
		}
		j.totalWork = j.remainingWork
		ej[i] = exec.Job{Name: job.Name, Graph: job.Graph, Sched: job.Sched}
	}
	runs, err := exec.CoRun(ej, m, p.claims)
	if err != nil {
		return nil, err
	}

	res := &Result{Arbiter: arb.Name(), Machine: m.String(), Jobs: make([]JobResult, 0, len(jobs))}
	var rateSum, rateSumSq float64
	rates := 0
	for i, run := range runs {
		jr := JobResult{
			Name: jobs[i].Name, Scheduler: run.Scheduler, Ops: len(run.Records),
			SoloNs: solos[i], MakespanNs: run.StepTimeNs, Records: run.Records,
		}
		if jr.SoloNs > 0 {
			jr.Slowdown = jr.MakespanNs / jr.SoloNs
			rate := jr.SoloNs / jr.MakespanNs
			rateSum += rate
			rateSumSq += rate * rate
			rates++
		}
		res.TotalNs = max(res.TotalNs, jr.MakespanNs)
		res.Jobs = append(res.Jobs, jr)
	}
	res.FairnessIndex = stats.JainIndex(rateSum, rateSumSq, rates)
	return res, nil
}

// policy is the arbiter applied to one co-run: the claim order and caps
// the loop consults at every scheduling event.
type policy struct {
	m   *hw.Machine
	arb Arbiter
	js  []jobState
}

// claims folds the records each job completed since the last scheduling
// event into its remaining work, in completion order, then appends the
// unfinished jobs to the empty dst in the arbiter's claim order, ties
// broken on job index, each with its arbiter cap. The active weight total
// is summed in index order.
func (p *policy) claims(runs []exec.Result, dst []exec.Claim) []exec.Claim {
	total := 0.0
	for i := range p.js {
		j := &p.js[i]
		for _, r := range runs[i].Records[j.seen:] {
			j.remainingWork -= j.workNs[r.Node]
			if j.remainingWork < 0 {
				j.remainingWork = 0
			}
		}
		j.seen = len(runs[i].Records)
		if j.active() {
			j.key = p.arb.key(j)
			dst = append(dst, exec.Claim{Job: i})
			total += j.weight()
		}
	}
	for k := range dst {
		dst[k].Cap = p.arb.coreCap(&p.js[dst[k].Job], p.m, total)
	}
	slices.SortFunc(dst, func(a, b exec.Claim) int {
		if c := p.arb.compare(&p.js[a.Job], &p.js[b.Job]); c != 0 {
			return c
		}
		return cmp.Compare(a.Job, b.Job)
	})
	return dst
}

// PredictedSoloWorkNs prices graph g's total predicted solo execution time
// on m: the sum, over every operation, of the perfmodel-tuned
// configuration's predicted time. It is the work metric cluster placement
// policies rank nodes by; profiles come from the process-wide perfmodel
// cache, so placement shares them with the jobs' own runtimes and with the
// SRWF arbiter.
func PredictedSoloWorkNs(m *hw.Machine, g *graph.Graph) float64 {
	total := 0.0
	for _, w := range predictedWork(m, g) {
		total += w
	}
	return total
}

// workKey keys the predicted-work vector on a profile store. The store is
// keyed by (machine, graph signature, interval) and the vector depends on
// nothing else — operations are interned by class — so one vector per
// store serves every graph with that signature, as core's per-node plan
// tables do.
type workKey struct{}

// predictedWork prices every node of g at its perfmodel-tuned
// configuration's predicted time (the machine-model baseline width when the
// profile lacks the class), indexed by NodeID. This is the work metric the
// SRWF arbiter ranks jobs by. It reads the store profiled at
// core.ProfileInterval, the one every runtime job profiles with, so the
// rankings come from the profiles the jobs run with. The vector is derived
// once per profile store and shared: callers must not modify it.
func predictedWork(m *hw.Machine, g *graph.Graph) []float64 {
	store := perfmodel.CachedProfileGraph(m, g, core.ProfileInterval)
	return store.Derive(workKey{}, func() any {
		work := make([]float64, g.Len())
		for _, n := range g.Nodes() {
			if pr, ok := store.Get(n.Op.Signature()); ok && pr.Best.TimeNs > 0 {
				work[n.ID] = pr.Best.TimeNs
				continue
			}
			work[n.ID] = m.OpTime(n.Op.Cost(), m.Cores, hw.Shared, hw.Solo())
		}
		return work
	}).([]float64)
}
