package exec

import (
	"fmt"
	"math"
	"slices"

	"opsched/internal/graph"
	"opsched/internal/hw"
)

// OpRecord is the execution record of one operation instance.
type OpRecord struct {
	Node      graph.NodeID
	Threads   int
	Placement hw.Placement
	HT        bool
	StartNs   float64
	FinishNs  float64
}

// DurationNs returns the operation's wall-clock duration.
func (r OpRecord) DurationNs() float64 { return r.FinishNs - r.StartNs }

// Result is the outcome of executing one training step.
type Result struct {
	// Scheduler is the policy name.
	Scheduler string
	// StepTimeNs is the makespan of the step.
	StepTimeNs float64
	// Records holds one entry per operation, in completion order.
	Records []OpRecord
}

// Job is one dataflow graph entering the loop under its own scheduler.
type Job struct {
	// Name labels the job in errors.
	Name  string
	Graph *graph.Graph
	Sched Scheduler
}

// Claim is one job's turn at a scheduling event: jobs ask their schedulers
// in claim order, and each may hold at most Cap physical cores
// (hyper-threading guests hold none).
type Claim struct {
	Job int // index into CoRun's jobs
	Cap int
}

// Leftover as a Claim's Cap lets the job hold only the cores the jobs ahead
// of it in the claim order leave idle.
const Leftover = -1

// Run executes one training step of g under the given scheduling policy on
// machine m (nil means hw.NewKNL()). It is CoRun's one-job case with no
// core cap: a scheduler that asks for more threads than the machine has
// cores gets them, and pays for the oversubscription (Table I).
func Run(g *graph.Graph, sched Scheduler, m *hw.Machine) (*Result, error) {
	if sched == nil {
		return nil, fmt.Errorf("exec: nil scheduler")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if m == nil {
		m = hw.NewKNL()
	}
	solo := []Job{{Name: g.Name, Graph: g, Sched: sched}}
	runs, err := CoRun(solo, m, func([]Result, []Claim) []Claim { return uncapped })
	if err != nil {
		return nil, err
	}
	return &runs[0], nil
}

// uncapped is Run's claim order: its one job, with no core cap.
var uncapped = []Claim{{Job: 0, Cap: math.MaxInt}}

// CoRun executes one training step of every job on m from a common virtual
// time zero and returns one Result per job, in input order; a job's
// StepTimeNs is the time its last operation finished. The graphs must be
// valid. claims is consulted once at every scheduling event and returns
// the jobs that may launch, in claim order; it may append them to dst, an
// empty buffer the loop reuses. runs holds each job's completion records
// so far, so a policy can rank jobs by their progress. Every job's
// in-flight operations are priced together, so co-running jobs slow each
// other down. A job whose scheduler is a Pricer with a table for its graph
// on m reads its launch prices from the table.
func CoRun(jobs []Job, m *hw.Machine, claims func(runs []Result, dst []Claim) []Claim) ([]Result, error) {
	l := loop{m: m, claims: claims, lanes: make([]lane, len(jobs)), runs: make([]Result, len(jobs))}
	for i, job := range jobs {
		n := job.Graph.Len()
		ln := &l.lanes[i]
		ln.view = State{Machine: m, Graph: job.Graph, Ready: make([]graph.NodeID, 0, n)}
		ln.name, ln.sched, ln.in, ln.refused = job.Name, job.Sched, job.Graph.InDegrees(), -1
		ln.prices = pricesFor(job.Sched, m, job.Graph)
		for id, d := range ln.in {
			if d == 0 {
				ln.view.Ready = append(ln.view.Ready, graph.NodeID(id))
			}
		}
		l.runs[i] = Result{Scheduler: job.Sched.Name(), Records: make([]OpRecord, 0, n)}
		l.total += n
	}
	for l.done < l.total {
		if err := l.event(); err != nil {
			return nil, err
		}
		recomputeRates(m, l.running)
		l.harvest(l.advance())
	}
	return l.runs, nil
}

// CoRunning returns the number of operations in flight just after each
// launch and each completion the records describe, in the loop's event
// order: by time, and at equal times completions before launches (the loop
// retires what finishes at an instant before it schedules). It is the
// series the paper's Figure 4 plots. For a co-run, pass the concatenation
// of every job's Records.
func CoRunning(records []OpRecord) []int {
	n := len(records)
	times := make([]float64, 2*n)
	starts, finishes := times[:n], times[n:]
	for i, r := range records {
		starts[i], finishes[i] = r.StartNs, r.FinishNs
	}
	slices.Sort(starts)
	slices.Sort(finishes)
	series := make([]int, 0, 2*n)
	inFlight := 0
	for len(starts) > 0 || len(finishes) > 0 {
		if len(finishes) > 0 && (len(starts) == 0 || finishes[0] <= starts[0]) {
			inFlight--
			finishes = finishes[1:]
		} else {
			inFlight++
			starts = starts[1:]
		}
		series = append(series, inFlight)
	}
	return series
}

// lane is one job mid-run. Its view is the State the job's scheduler gets:
// its graph, its ready queue and its own in-flight operations in launch
// order. Other jobs' operations are invisible to it; the claim policy and
// the machine model account for them.
type lane struct {
	view      State
	name      string
	sched     Scheduler
	prices    *PriceTable // the scheduler's launch prices; nil prices each launch
	in        []int       // outstanding dependency counts, by NodeID
	cores     int         // physical cores the non-HT running operations occupy
	saturated bool        // no more launches until the next completion event

	// refused is the limit the scheduler last launched nothing under while
	// the lane had nothing in flight; -1 once the lane launches again.
	// Until then none of its operations can complete, so its view stays as
	// it was, and Schedule is a function of the view: under a limit no
	// larger it would refuse again, so it is not asked.
	refused int
}

// loop is the op-event loop: per-job ready bookkeeping, the union of every
// job's in-flight operations, one virtual clock.
type loop struct {
	m      *hw.Machine
	lanes  []lane
	runs   []Result
	claims func(runs []Result, dst []Claim) []Claim
	done   int
	total  int

	clockNs float64
	running []*Running // every job's in-flight operations, in launch order

	// retired holds the Running values advance has retired: its tail is
	// the completions advance last returned, and once harvested all of
	// them are free for launch to recycle. slab is the unused tail of the
	// chunk launch carves new Running values from.
	retired []*Running
	slab    []Running

	// decs is the buffer schedulers append their decisions to and order
	// the current scheduling event's claim order; both are reused.
	decs  []Decision
	order []Claim
}

// event runs capped scheduling rounds until no job can launch, forcing the
// first schedulable job past its cap whenever the machine would otherwise
// sit idle: the progress guarantee that makes every claim policy
// deadlock-free. The claim order is fetched once per event: only a
// completion changes what a policy ranks jobs by, and none happens
// mid-event.
func (l *loop) event() error {
	l.order = l.claims(l.runs, l.order[:0])
	for {
		// Every job is asked afresh: after a completion, and after a forced
		// launch, since Strategy-4 guests, for one, only exist once a host
		// is running.
		for i := range l.lanes {
			l.lanes[i].saturated = false
		}
		// Capped rounds: ask every unsaturated job in claim order until a
		// full round launches nothing. ahead counts the cores the jobs
		// already passed in the round hold, skipped jobs included.
		for {
			any := false
			ahead := 0
			for _, c := range l.order {
				ln := &l.lanes[c.Job]
				if !ln.saturated && len(ln.view.Ready) > 0 {
					limit := c.Cap
					if limit == Leftover {
						limit = max(l.m.Cores-ahead, 0)
					}
					launched, err := l.schedule(c.Job, limit)
					if err != nil {
						return err
					}
					any = any || launched
				}
				ahead += ln.cores
			}
			if !any {
				break
			}
		}
		if len(l.running) > 0 {
			return nil
		}

		// Nothing running and nothing fit a cap: let the first job in claim
		// order launch past it so the machine never idles.
		forced := false
		for _, c := range l.order {
			if len(l.lanes[c.Job].view.Ready) == 0 {
				continue
			}
			launched, err := l.schedule(c.Job, l.m.Cores)
			if err != nil {
				return err
			}
			if forced = launched; forced {
				break
			}
		}
		if !forced {
			return fmt.Errorf("exec: stalled with %d of %d ops done", l.done, l.total)
		}
	}
}

// schedule asks job j's scheduler for decisions against the job's own view
// of the machine and launches those that keep it within limit physical
// cores. It reports whether anything launched.
func (l *loop) schedule(j, limit int) (bool, error) {
	ln := &l.lanes[j]
	if limit <= ln.refused {
		ln.saturated = true
		return false, nil
	}
	decs := ln.sched.Schedule(&ln.view, l.decs[:0])
	if cap(decs) > cap(l.decs) {
		l.decs = decs // keep the grown buffer
	}

	launched := false
	for _, d := range decs {
		d.Job = j
		if err := d.Validate(&ln.view); err != nil {
			return launched, fmt.Errorf("exec: job %s: %w", ln.name, err)
		}
		if !d.HT && ln.cores+d.Placement.CoresUsed(l.m, d.Threads) > limit {
			// Over the cap: drop the rest of the batch and wait for the next
			// completion event (the scheduler would re-propose the same
			// decisions forever otherwise).
			ln.saturated = true
			break
		}
		if err := l.launch(ln, d); err != nil {
			return launched, fmt.Errorf("exec: job %s: %w", ln.name, err)
		}
		launched = true
	}
	if !launched {
		ln.saturated = true
		if len(ln.view.Running) == 0 {
			ln.refused = limit
		}
	}
	return launched, nil
}

// launch starts one decision of lane ln: the node leaves the ready queue,
// it is priced once (the context-free hw.OpPrice that every
// recomputeRates only rescales, its solo duration and its bandwidth
// demand), and the resulting Running joins the union and the lane.
func (l *loop) launch(ln *lane, d Decision) error {
	i := slices.Index(ln.view.Ready, d.Node)
	if i < 0 {
		return fmt.Errorf("node %d not in ready queue", d.Node)
	}
	lp, err := ln.price(l.m, d)
	if err != nil {
		return err
	}
	ln.view.Ready = append(ln.view.Ready[:i], ln.view.Ready[i+1:]...)
	r := l.newRunning()
	*r = Running{
		Node: d.Node, Job: d.Job, Threads: d.Threads, Placement: d.Placement,
		HT: d.HT, Pinned: d.Pinned, StartNs: l.clockNs,
		price: lp.price, remaining: 1, nominal: lp.solo, demand: lp.demand,
	}
	l.running = append(l.running, r)
	ln.view.Running = append(ln.view.Running, r)
	ln.refused = -1
	if !d.HT {
		ln.cores += d.Placement.CoresUsed(l.m, d.Threads)
	}
	return nil
}

// price returns the launch price of decision d on m: the lane's table
// entry when it has one, else priced fresh from the validated cost.
func (ln *lane) price(m *hw.Machine, d Decision) (launchPrice, error) {
	if lp := ln.prices.lookup(ln.view.Graph, d.Node, d.Threads, d.Placement); lp != nil {
		return *lp, nil
	}
	cost := ln.view.Graph.Node(d.Node).Op.Cost()
	if err := cost.Validate(); err != nil {
		return launchPrice{}, fmt.Errorf("node %d: %w", d.Node, err)
	}
	return priceLaunch(m, cost, d.Threads, d.Placement), nil
}

// newRunning returns a Running to fill: one advance has retired, or the
// next slot of the loop's slab.
func (l *loop) newRunning() *Running {
	if n := len(l.retired); n > 0 {
		r := l.retired[n-1]
		l.retired = l.retired[:n-1]
		return r
	}
	if len(l.slab) == 0 {
		l.slab = make([]Running, 16)
	}
	r := &l.slab[0]
	l.slab = l.slab[1:]
	return r
}

// harvest retires completed operations: each is recorded on its job's
// Result, leaves its lane, and releases its dependents into the lane's
// ready queue.
func (l *loop) harvest(completed []*Running) {
	for _, r := range completed {
		ln, res := &l.lanes[r.Job], &l.runs[r.Job]
		l.done++
		if !r.HT {
			ln.cores -= r.Placement.CoresUsed(l.m, r.Threads)
		}
		res.StepTimeNs = l.clockNs
		res.Records = append(res.Records, OpRecord{
			Node: r.Node, Threads: r.Threads, Placement: r.Placement,
			HT: r.HT, StartNs: r.StartNs, FinishNs: l.clockNs,
		})
		i := slices.Index(ln.view.Running, r)
		ln.view.Running = append(ln.view.Running[:i], ln.view.Running[i+1:]...)
		for _, c := range ln.view.Graph.Node(r.Node).Consumers() {
			ln.in[c]--
			if ln.in[c] == 0 {
				ln.view.Ready = append(ln.view.Ready, c)
			}
		}
	}
}

// advance moves the clock forward to the earliest completion among the
// running operations, progresses every one of them by the elapsed virtual
// time, removes the completed ones from the running set (compacting it in
// place) and returns them in running-set order. It returns nil when
// nothing is running.
//
// The returned slice is the tail of the loop's retired buffer: it and the
// Running values in it stay valid only until the next launch, which
// recycles them.
//
// Remaining times below half a nanosecond count as done: every modeled
// operation takes microseconds, and once the clock is large, sub-ulp
// remainders would otherwise never drain (clock+r == clock in float64). The
// nearest op is forced complete so the loop always makes progress.
func (l *loop) advance() []*Running {
	next := math.Inf(1)
	var nearest *Running
	for _, r := range l.running {
		if t := l.clockNs + r.RemainingNs(); t < next {
			next = t
			nearest = r
		}
	}
	if nearest == nil {
		return nil
	}
	elapsed := next - l.clockNs
	if elapsed < 0 {
		elapsed = 0
	}
	l.clockNs = next

	const completionEpsNs = 0.5
	n := len(l.retired)
	still := l.running[:0]
	for _, r := range l.running {
		r.remaining -= elapsed / r.nominal
		if r != nearest && r.remaining*r.nominal > completionEpsNs {
			still = append(still, r)
			continue
		}
		l.retired = append(l.retired, r)
	}
	l.running = still
	return l.retired[n:]
}

// recomputeRates refreshes every running operation's nominal duration for
// the current co-run set: bandwidth is shared when total demand exceeds the
// machine peak, hyper-threading guests slow their hosts, and
// oversubscription beyond the physical cores stacks everything onto
// hyper-threads (the TensorFlow-default behaviour of Table I). The co-run
// set is the union across jobs, which is how co-located jobs genuinely
// slow each other down.
func recomputeRates(m *hw.Machine, running []*Running) {
	totalThreads := 0
	totalDemand := 0.0
	for _, r := range running {
		totalThreads += r.Threads
		totalDemand += r.demand
	}
	share := 1.0
	if totalDemand > m.BWMaxBytesNs {
		share = m.BWMaxBytesNs / totalDemand
	}

	// Match hyper-threading guests to hosts: each guest rides the largest
	// non-HT op that can cover its threads. Guests run at full SMT cost
	// (they share busy cores); hosts only lose a mild slice per guest —
	// Strategy 4 deliberately picks small, short operations as guests.
	for _, r := range running {
		r.guests, r.depth, r.scale = 0, 1, 1
	}
	for _, r := range running {
		if !r.HT {
			continue
		}
		var host *Running
		for _, h := range running {
			if h.HT {
				continue
			}
			if h.Placement.CoresUsed(m, h.Threads) >= r.Threads &&
				(host == nil || h.Threads > host.Threads) {
				host = h
			}
		}
		if host != nil {
			host.guests++
			r.depth = 2
		}
		// A guest whose host already finished is promoted: its cores are
		// free now, so it runs at full speed.
	}
	const hostGuestEff = 0.99
	for _, h := range running {
		for i := 0; i < h.guests && i < m.HTPerCore-1; i++ {
			h.scale *= hostGuestEff
		}
	}

	// Thread stacking: when the co-running operations' threads exceed the
	// physical cores, pools overlap onto hyper-threads (and beyond them,
	// OS time slicing) — the mechanism behind Table I's 136/272-thread
	// collapse.
	overlapped := false
	if totalThreads > m.Cores {
		overlapped = true
		d := (totalThreads + m.Cores - 1) / m.Cores
		for _, r := range running {
			if d > r.depth {
				r.depth = d
			}
		}
	}

	// Mesh/L2-stream interference: co-runners on disjoint cores still
	// fight over the on-die interconnect and the direct-mapped MCDRAM
	// cache, costing each of them compute throughput (the paper's Table
	// III reports 17-25% individual losses for a 2-way co-run). Pinned
	// co-runners — the runtime partitions tiles explicitly — interfere
	// far less than unpinned TensorFlow pools whose threads migrate and
	// collide. When the pools already overlap on hyper-threads, the SMT
	// penalty above covers the first two pools and mesh interference only
	// grows with the pool count beyond that.
	const (
		meshAlphaPinned   = 0.22
		meshAlphaUnpinned = 0.85
	)
	if k := nonHT(running); k >= 2 {
		extra := k - 1
		if overlapped {
			extra = k - 2
		}
		if extra > 0 {
			for _, r := range running {
				if r.HT {
					continue
				}
				alpha := meshAlphaUnpinned
				if r.Pinned {
					alpha = meshAlphaPinned
				}
				r.scale *= 1 / (1 + alpha*float64(extra))
			}
		}
	}

	for _, r := range running {
		r.nominal = r.price.Time(m, hw.RunContext{
			BWShare:      share,
			SMTDepth:     r.depth,
			ComputeScale: r.scale,
		})
	}
}

// nonHT counts the running operations that occupy cores of their own.
func nonHT(running []*Running) int {
	n := 0
	for _, r := range running {
		if !r.HT {
			n++
		}
	}
	return n
}
