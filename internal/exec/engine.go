package exec

import (
	"fmt"
	"math"

	"opsched/internal/graph"
	"opsched/internal/hw"
	"opsched/internal/trace"
)

// Options configure a simulated training-step execution.
type Options struct {
	// Machine is the hardware model; nil means hw.NewKNL().
	Machine *hw.Machine
	// Trace enables event recording (needed for Figure 4).
	Trace bool
}

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
	// Trace is the event log (nil unless Options.Trace).
	Trace *trace.Trace
}

// Run executes one training step of g under the given scheduling policy.
func Run(g *graph.Graph, sched Scheduler, opts Options) (*Result, error) {
	if sched == nil {
		return nil, fmt.Errorf("exec: nil scheduler")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	m := opts.Machine
	if m == nil {
		m = hw.NewKNL()
	}

	in := g.InDegrees()
	ready := make([]graph.NodeID, 0, g.Len())
	for id, d := range in {
		if d == 0 {
			ready = append(ready, graph.NodeID(id))
		}
	}

	st := &State{Machine: m, Graph: g, Ready: ready}
	res := &Result{Scheduler: sched.Name(), Records: make([]OpRecord, 0, g.Len())}
	if opts.Trace {
		res.Trace = &trace.Trace{}
	}

	done := 0
	var decs []Decision // reused by every Schedule call
	for done < g.Len() {
		// Ask the scheduler for launches until it has nothing to add.
		for {
			decs = sched.Schedule(st, decs[:0])
			if len(decs) == 0 {
				break
			}
			for _, d := range decs {
				if err := d.Validate(st); err != nil {
					return nil, err
				}
				if err := launch(st, d, res); err != nil {
					return nil, err
				}
			}
		}
		if len(st.Running) == 0 {
			return nil, fmt.Errorf("exec: scheduler %q stalled with %d ready and %d done of %d ops",
				sched.Name(), len(st.Ready), done, g.Len())
		}

		RecomputeRates(st)

		completed := AdvanceToNextCompletion(st)
		for _, r := range completed {
			done++
			res.Records = append(res.Records, OpRecord{
				Node: r.Node, Threads: r.Threads, Placement: r.Placement,
				HT: r.HT, StartNs: r.StartNs, FinishNs: st.ClockNs,
			})
			for _, c := range g.Node(r.Node).Consumers() {
				in[c]--
				if in[c] == 0 {
					st.Ready = append(st.Ready, c)
				}
			}
		}
		if res.Trace != nil {
			// One Finish event per completed operation, attributed to its
			// real node. Simultaneous completions drain one at a time, so
			// each event's CoRunning reflects the set still in flight after
			// that operation retired.
			for i, r := range completed {
				res.Trace.Add(trace.Event{
					ClockNs: st.ClockNs, Type: trace.Finish,
					Node: r.Node, CoRunning: len(st.Running) + len(completed) - 1 - i,
				})
			}
		}
	}

	res.StepTimeNs = st.ClockNs
	return res, nil
}

// launch removes the node from the ready queue and adds it to the running
// set.
func launch(st *State, d Decision, res *Result) error {
	r, err := Start(st, d)
	if err != nil {
		return err
	}
	if res.Trace != nil {
		res.Trace.Add(trace.Event{
			ClockNs: st.ClockNs, Type: trace.Launch,
			Node: r.Node, CoRunning: len(st.Running),
		})
	}
	return nil
}

// Start launches one decision: the node leaves st.Ready, it is priced once
// on st.Machine (the context-free hw.OpPrice that every RecomputeRates only
// rescales, its solo duration and its bandwidth demand), and the resulting
// Running — tagged with the decision's Job — joins st.Running. The Running
// comes from a slab st owns and may be one AdvanceToNextCompletion retired
// before its latest call. Start does not re-validate the decision beyond
// readiness; callers wanting the full sanity checks run Decision.Validate
// first, as exec.Run does.
func Start(st *State, d Decision) (*Running, error) {
	idx := -1
	for i, id := range st.Ready {
		if id == d.Node {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("exec: node %d not in ready queue", d.Node)
	}
	st.Ready = append(st.Ready[:idx], st.Ready[idx+1:]...)

	cost := st.Graph.Node(d.Node).Op.Cost()
	if err := cost.Validate(); err != nil {
		return nil, fmt.Errorf("exec: node %d: %w", d.Node, err)
	}
	price := st.Machine.Price(cost, d.Threads, d.Placement)
	solo := price.Time(st.Machine, hw.Solo())
	r := st.newRunning()
	*r = Running{
		Node: d.Node, Job: d.Job, Threads: d.Threads, Placement: d.Placement,
		HT: d.HT, Pinned: d.Pinned, StartNs: st.ClockNs,
		price: price, remaining: 1, nominal: solo,
	}
	if solo > 0 {
		r.demand = price.Traffic() / solo
	}
	st.Running = append(st.Running, r)
	return r, nil
}

// AdvanceToNextCompletion moves st.ClockNs forward to the earliest
// completion among st.Running, progresses every running operation by the
// elapsed virtual time, removes the completed operations from st.Running
// (compacting it in place) and returns them in running-set order. It
// returns nil when nothing is running.
//
// The returned slice is a buffer st owns: it and the Running values in it
// stay valid only until the next AdvanceToNextCompletion on st, after which
// Start recycles those Running values. Callers copy what they keep.
//
// Remaining times below half a nanosecond count as done: every modeled
// operation takes microseconds, and once the clock is large, sub-ulp
// remainders would otherwise never drain (clock+r == clock in float64). The
// nearest op is forced complete so callers always make progress.
func AdvanceToNextCompletion(st *State) []*Running {
	// The previous call's completions are out of the caller's hands now.
	st.free = append(st.free, st.completed...)
	st.completed = st.completed[:0]

	next := math.Inf(1)
	var nearest *Running
	for _, r := range st.Running {
		if t := st.ClockNs + r.RemainingNs(); t < next {
			next = t
			nearest = r
		}
	}
	if nearest == nil {
		return nil
	}
	elapsed := next - st.ClockNs
	if elapsed < 0 {
		elapsed = 0
	}
	st.ClockNs = next

	const completionEpsNs = 0.5
	still := st.Running[:0]
	for _, r := range st.Running {
		r.remaining -= elapsed / r.nominal
		if r != nearest && r.remaining*r.nominal > completionEpsNs {
			still = append(still, r)
			continue
		}
		st.completed = append(st.completed, r)
	}
	st.Running = still
	return st.completed
}

// RecomputeRates refreshes every running operation's nominal duration for
// the current co-run set: bandwidth is shared when total demand exceeds the
// machine peak, hyper-threading guests slow their hosts, and
// oversubscription beyond the physical cores stacks everything onto
// hyper-threads (the TensorFlow-default behaviour of Table I). The co-run
// set is whatever st.Running holds — in multi-job execution that is the
// union across jobs, which is how co-located jobs genuinely slow each other
// down.
func RecomputeRates(st *State) {
	m := st.Machine

	totalThreads := 0
	totalDemand := 0.0
	for _, r := range st.Running {
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
	for _, r := range st.Running {
		r.guests, r.depth, r.scale = 0, 1, 1
	}
	for _, r := range st.Running {
		if !r.HT {
			continue
		}
		var host *Running
		for _, h := range st.Running {
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
	for _, h := range st.Running {
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
		for _, r := range st.Running {
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
	if k := nonHT(st.Running); k >= 2 {
		extra := k - 1
		if overlapped {
			extra = k - 2
		}
		if extra > 0 {
			for _, r := range st.Running {
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

	for _, r := range st.Running {
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
