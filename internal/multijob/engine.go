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
)

// jobState is one job mid-run: its scheduler's ready and running
// operations and the progress accounting the arbiter orders jobs by.
type jobState struct {
	Job
	index int // position in the CoRun input (the determinism tie-breaker)

	in      []int          // outstanding dependency counts, by NodeID
	ready   []graph.NodeID // ready queue in enqueue order
	running []*exec.Running
	cores   int // physical cores the non-HT running operations occupy
	done    int
	records []exec.OpRecord

	workNs        []float64 // predicted solo work per node, by NodeID; shared, read-only
	totalWork     float64
	remainingWork float64 // predicted solo time of the unfinished operations
	finishNs      float64
	saturated     bool // no more launches until the next completion event
}

// active reports whether the job still has operations to finish.
func (j *jobState) active() bool { return j.done < j.Graph.Len() }

// progress is the fraction of the job's predicted work already retired, in
// [0,1] — what the fair-share arbiter equalizes.
func (j *jobState) progress() float64 {
	if j.totalWork <= 0 {
		return 1
	}
	return (j.totalWork - j.remainingWork) / j.totalWork
}

// Options configure a co-scheduled run.
type Options struct {
	// Machine is the shared hardware model; nil means hw.NewKNL().
	Machine *hw.Machine
}

// engine is the multi-job discrete-event loop: per-job ready bookkeeping,
// one global running union, one shared clock.
type engine struct {
	m      *hw.Machine
	arb    Arbiter
	js     []*jobState
	global *exec.State // Running is the union across jobs; Graph/Ready are the launching job's
	done   int
	total  int

	// view is the per-job State scheduleJob hands a scheduler, reset on
	// every call (a Scheduler interface call would move a fresh one to the
	// heap); decs is the buffer schedulers append their decisions to;
	// order is the current scheduling event's claim order. All three are
	// reused across scheduling events.
	view  exec.State
	decs  []exec.Decision
	order []*jobState
}

// SoloNs runs job alone on machine m (nil means hw.NewKNL()) under its own
// scheduler and returns its makespan: the slowdown baseline CoRun divides
// by. Runtime schedulers are already profiled, so this is the exact
// single-job behaviour the facade's TrainStep produces. The value depends
// only on the job's graph, scheduler and m, so callers that co-run the
// same job many times may compute it once.
func SoloNs(job Job, m *hw.Machine) (float64, error) {
	if m == nil {
		m = hw.NewKNL()
	}
	res, err := exec.Run(job.Graph, job.Sched, exec.Options{Machine: m})
	if err != nil {
		return 0, fmt.Errorf("multijob: solo run of job %s: %w", job.Name, err)
	}
	return res.StepTimeNs, nil
}

// CoTrain executes one training step of every job concurrently on one
// machine under the given cross-job arbiter: it prices every job's solo
// baseline with SoloNs, then co-runs them through CoRun. Execution is
// fully deterministic.
func CoTrain(jobs []Job, arb Arbiter, opts Options) (*Result, error) {
	if err := validateJobs(jobs); err != nil {
		return nil, err
	}
	if opts.Machine == nil {
		opts.Machine = hw.NewKNL()
	}
	solos := make([]float64, len(jobs))
	for i, job := range jobs {
		s, err := SoloNs(job, opts.Machine)
		if err != nil {
			return nil, err
		}
		solos[i] = s
	}
	return CoRun(jobs, solos, arb, opts)
}

// CoRun co-runs one training step of every job from a common virtual time
// zero under the given cross-job arbiter. solos[i] is job i's solo
// makespan on opts.Machine (SoloNs), the baseline its slowdown and the
// fairness index are priced against. Execution is fully deterministic.
func CoRun(jobs []Job, solos []float64, arb Arbiter, opts Options) (*Result, error) {
	if err := validateJobs(jobs); err != nil {
		return nil, err
	}
	if len(solos) != len(jobs) {
		return nil, fmt.Errorf("multijob: %d solo baselines for %d jobs", len(solos), len(jobs))
	}
	if !arb.valid() {
		return nil, fmt.Errorf("multijob: unknown arbiter %s (have %v)", arb.Name(), Arbiters())
	}
	m := opts.Machine
	if m == nil {
		m = hw.NewKNL()
	}

	e := &engine{m: m, arb: arb, global: &exec.State{Machine: m}, js: make([]*jobState, 0, len(jobs))}
	for i, job := range jobs {
		n := job.Graph.Len()
		j := &jobState{Job: job, index: i, in: job.Graph.InDegrees(),
			ready: make([]graph.NodeID, 0, n), records: make([]exec.OpRecord, 0, n)}
		for id, d := range j.in {
			if d == 0 {
				j.ready = append(j.ready, graph.NodeID(id))
			}
		}
		j.workNs = predictedWork(m, j.Graph)
		for _, w := range j.workNs {
			j.remainingWork += w
		}
		j.totalWork = j.remainingWork
		e.js = append(e.js, j)
		e.total += n
	}

	for e.done < e.total {
		if err := e.scheduleEvent(); err != nil {
			return nil, err
		}
		exec.RecomputeRates(e.global)
		completed := exec.AdvanceToNextCompletion(e.global)
		for _, r := range completed {
			e.harvest(r)
		}
		for _, j := range e.js {
			j.saturated = false
		}
	}

	res := &Result{Arbiter: arb.Name(), Machine: m.String(), TotalNs: e.global.ClockNs,
		Jobs: make([]JobResult, 0, len(e.js))}
	progress := make([]float64, 0, len(e.js))
	for i, j := range e.js {
		jr := JobResult{
			Name: j.Name, Scheduler: j.Sched.Name(), Ops: j.done,
			SoloNs: solos[i], MakespanNs: j.finishNs, Records: j.records,
		}
		if jr.SoloNs > 0 {
			jr.Slowdown = jr.MakespanNs / jr.SoloNs
			progress = append(progress, jr.SoloNs/jr.MakespanNs)
		}
		res.Jobs = append(res.Jobs, jr)
	}
	res.FairnessIndex = jainIndex(progress)
	return res, nil
}

// scheduleEvent runs budgeted scheduling rounds until no job can launch,
// forcing the first schedulable job past its budget whenever the machine
// would otherwise sit idle — the progress guarantee that makes every
// arbiter deadlock-free. The claim order and the active weight total are
// computed once per event: only a harvest changes a sort key or which jobs
// are active, and none runs mid-event.
func (e *engine) scheduleEvent() error {
	total := e.claimOrder()
	for {
		// Budgeted rounds: ask every unsaturated job in claim order until
		// a full round launches nothing. ahead counts the cores the jobs
		// already passed in the round hold, skipped jobs included.
		for {
			any := false
			ahead := 0
			for _, j := range e.order {
				if !j.saturated && len(j.ready) > 0 {
					n, err := e.scheduleJob(j, e.arb.budget(j, e.m, total, ahead))
					if err != nil {
						return err
					}
					if n > 0 {
						any = true
					}
				}
				ahead += j.cores
			}
			if !any {
				break
			}
		}
		if len(e.global.Running) > 0 {
			return nil
		}

		// Nothing running and nothing fit a budget: let the first job in
		// claim order launch unbudgeted so the machine never idles.
		forced := false
		for _, j := range e.order {
			if len(j.ready) == 0 {
				continue
			}
			j.saturated = false
			n, err := e.scheduleJob(j, e.m.Cores)
			if err != nil {
				return err
			}
			if n > 0 {
				forced = true
				break
			}
		}
		if !forced {
			ready := 0
			for _, j := range e.js {
				ready += len(j.ready)
			}
			return fmt.Errorf("multijob: arbiter %q stalled with %d ready and %d done of %d ops",
				e.arb.Name(), ready, e.done, e.total)
		}
		// With a host now in flight, re-poll every job before advancing the
		// clock: clear the saturation flags set during the empty-machine
		// rounds so the budgeted pass genuinely re-asks each scheduler
		// (Strategy-4 guests, for one, only exist once a host is running).
		for _, j := range e.js {
			j.saturated = false
		}
	}
}

// claimOrder sorts the active jobs into e.order by the arbiter's key,
// breaking ties on job index, and returns their weight total summed in
// index order.
func (e *engine) claimOrder() float64 {
	e.order = e.order[:0]
	total := 0.0
	for _, j := range e.js {
		if j.active() {
			e.order = append(e.order, j)
			total += j.weight()
		}
	}
	slices.SortFunc(e.order, func(a, b *jobState) int {
		switch {
		case e.arb.claimsFirst(a, b):
			return -1
		case e.arb.claimsFirst(b, a):
			return 1
		}
		return cmp.Compare(a.index, b.index)
	})
	return total
}

// scheduleJob asks one job's scheduler for decisions against its own-job
// view of the machine and launches those that keep the job within budget
// physical cores. It returns the number of launches.
func (e *engine) scheduleJob(j *jobState, budget int) (int, error) {
	// The view a per-job runtime gets: its graph, its ready queue, its own
	// in-flight operations. Cross-job interference is invisible to it —
	// that is the arbiter's and the machine model's business.
	view := &e.view
	*view = exec.State{Machine: e.m, Graph: j.Graph, ClockNs: e.global.ClockNs,
		Ready: j.ready, Running: j.running}
	decs := j.Sched.Schedule(view, e.decs[:0])
	e.decs = decs
	if len(decs) == 0 {
		j.saturated = true
		return 0, nil
	}

	launched := 0
	for _, d := range decs {
		d.Job = j.index
		if err := d.Validate(view); err != nil {
			return launched, fmt.Errorf("multijob: job %s: %w", j.Name, err)
		}
		need := 0
		if !d.HT {
			need = d.Placement.CoresUsed(e.m, d.Threads)
		}
		if need > 0 && j.cores+need > budget {
			// Over budget: drop the rest of the batch and wait for the next
			// completion event (the scheduler would re-propose the same
			// decisions forever otherwise).
			j.saturated = true
			break
		}
		// Launch into the union, which owns every Running; the job's own
		// view tracks the same entry so both states advance together.
		e.global.Graph, e.global.Ready = j.Graph, view.Ready
		r, err := exec.Start(e.global, d)
		if err != nil {
			return launched, fmt.Errorf("multijob: job %s: %w", j.Name, err)
		}
		view.Ready = e.global.Ready
		j.running = append(j.running, r)
		j.cores += need
		view.Running = j.running
		launched++
	}
	j.ready = view.Ready
	return launched, nil
}

// harvest retires one completed operation: record it, release its
// dependents into the owning job's ready queue, and update the job's
// progress accounting.
func (e *engine) harvest(r *exec.Running) {
	j := e.js[r.Job]
	j.done++
	e.done++
	if !r.HT {
		j.cores -= r.Placement.CoresUsed(e.m, r.Threads)
	}
	j.finishNs = e.global.ClockNs
	j.remainingWork -= j.workNs[r.Node]
	if j.remainingWork < 0 {
		j.remainingWork = 0
	}
	j.records = append(j.records, exec.OpRecord{
		Node: r.Node, Threads: r.Threads, Placement: r.Placement,
		HT: r.HT, StartNs: r.StartNs, FinishNs: e.global.ClockNs,
	})
	for i, o := range j.running {
		if o == r {
			j.running = append(j.running[:i], j.running[i+1:]...)
			break
		}
	}
	for _, c := range j.Graph.Node(r.Node).Consumers() {
		j.in[c]--
		if j.in[c] == 0 {
			j.ready = append(j.ready, c)
		}
	}
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
