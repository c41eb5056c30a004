package place

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"time"

	"opsched/internal/gpu"
	"opsched/internal/graph"
	"opsched/internal/hw"
	"opsched/internal/multijob"
	"opsched/internal/nn"
	"opsched/internal/obs"
	"opsched/internal/perfmodel"
)

// waveState is one in-flight gang wave on a node. A wave executes its
// resident jobs in lockstep rounds — one training step per job per round,
// priced by one NodeRuntime.RunWave call — until every job has retired all
// its steps, or a trigger cuts the wave at the current round's end (a
// per-job step boundary, so no completed work is ever discarded). A
// single-step job set makes the wave exactly one round: the engine's
// pre-preemption behaviour, byte for byte.
type waveState struct {
	ord    int   // wave ordinal on this node
	active []int // workload indices still gang-resident, admission order
	// roundStartNs/roundEndNs bound the current round; res holds its
	// per-job one-step results, indexed like active.
	roundStartNs float64
	roundEndNs   float64
	res          *WaveResult
	// drainNs estimates the whole wave's end under the lockstep model
	// (what policies and triggers see as the node's horizon).
	drainNs float64
	// cut marks the wave for checkpointing at the current round's end.
	cut bool
	// batch maps an inference slot leader to the follower requests its
	// dynamic batch folded in: the leader occupies the wave slot (and is
	// the job `active` lists), the followers ride its batch-sized forward
	// step and complete with it. nil in any wave that batched nothing, so
	// training-only waves carry no extra state.
	batch map[int][]int
}

// nodeState is one node's mutable bookkeeping inside the event loop.
type nodeState struct {
	rt     NodeRuntime
	wave   *waveState // in-flight gang wave, nil when idle; else &waveRec
	freeNs float64    // when the node last became idle — valid while wave == nil
	queue  []int      // workload indices staged behind the wave, placement order

	// Incremental aggregates over queue, maintained so neither the wave
	// scheduler nor a policy snapshot ever rescans every queued job:
	// queuedWorkNs prices the queue's remaining steps on this node's
	// hardware, minReadyNs is the earliest staged-job ready time (+Inf
	// when empty).
	queuedWorkNs float64
	minReadyNs   float64

	waves  int
	jobs   int
	busyNs float64

	// waveRec is the record every wave launched on this node reuses,
	// active's backing array included. Nothing holds a wave's record or
	// its active slice past the wave's end, so launching a wave allocates
	// neither.
	waveRec waveState
}

// nextEventNs is the node's next event on the cluster clock: the current
// round's end while a wave is in flight, else the earliest possible wave
// launch (free and with a staged job arrived), else never.
func (ns *nodeState) nextEventNs() float64 {
	if ns.wave != nil {
		return ns.wave.roundEndNs
	}
	if len(ns.queue) == 0 {
		return math.Inf(1)
	}
	if ns.minReadyNs > ns.freeNs {
		return ns.minReadyNs
	}
	return ns.freeNs
}

// drainTail is one active job's contribution to a wave's drain estimate:
// rounds remaining past the current one and the frozen per-step span.
type drainTail struct {
	rem  int
	span float64
}

// waveEntry is one pending node event in the event loop's min-heap.
type waveEntry struct {
	startNs float64
	node    int
}

// eventHeap orders the pending node events by time, breaking ties on the
// lower node index — the same deterministic order the former linear scan
// produced, at O(log nodes) per event instead of O(jobs × nodes). It holds
// at most one entry per node: set re-keys a node's entry in place or
// removes it, so the heap never carries stale entries and never boxes.
type eventHeap struct {
	es []waveEntry
	// heapIdx[node] is node's slot in es, -1 while it has no entry.
	heapIdx []int
}

// newEventHeap returns an empty heap over nodes nodes.
func newEventHeap(nodes int) eventHeap {
	h := eventHeap{heapIdx: make([]int, nodes)}
	for i := range h.heapIdx {
		h.heapIdx[i] = -1
	}
	return h
}

// less orders entries a and b of es on (startNs, node).
func (h *eventHeap) less(a, b int) bool {
	ea, eb := &h.es[a], &h.es[b]
	if ea.startNs != eb.startNs {
		return ea.startNs < eb.startNs
	}
	return ea.node < eb.node
}

func (h *eventHeap) swap(a, b int) {
	h.es[a], h.es[b] = h.es[b], h.es[a]
	h.heapIdx[h.es[a].node] = a
	h.heapIdx[h.es[b].node] = b
}

func (h *eventHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

func (h *eventHeap) down(i int) {
	n := len(h.es)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h.less(r, c) {
			c = r
		}
		if !h.less(c, i) {
			return
		}
		h.swap(i, c)
		i = c
	}
}

// set makes node's pending event startNs: it inserts the node, re-keys its
// entry in place, or removes it when startNs is +Inf (no pending event).
func (h *eventHeap) set(node int, startNs float64) {
	i := h.heapIdx[node]
	if math.IsInf(startNs, 1) {
		if i >= 0 {
			h.remove(i)
		}
		return
	}
	if i < 0 {
		h.heapIdx[node] = len(h.es)
		h.es = append(h.es, waveEntry{startNs: startNs, node: node})
		h.up(len(h.es) - 1)
		return
	}
	h.es[i].startNs = startNs
	h.down(i)
	h.up(i)
}

// remove deletes the entry in slot i, moving the last entry into it.
func (h *eventHeap) remove(i int) {
	last := len(h.es) - 1
	h.heapIdx[h.es[i].node] = -1
	if i == last {
		h.es = h.es[:last]
		return
	}
	h.es[i] = h.es[last]
	h.heapIdx[h.es[i].node] = i
	h.es = h.es[:last]
	h.down(i)
	h.up(i)
}

// top returns the earliest pending event, or (-1, +Inf) when none is.
func (h *eventHeap) top() (int, float64) {
	if len(h.es) == 0 {
		return -1, math.Inf(1)
	}
	return h.es[0].node, h.es[0].startNs
}

// pop removes the earliest pending event.
func (h *eventHeap) pop() { h.remove(0) }

// jobRec is one admitted job's engine state: the outcome the run fills
// in, the two spec fields the outcome does not echo, and the per-job
// bookkeeping the event loop keeps. A record is written once at admission
// into the engine's job table and never moves afterwards.
type jobRec struct {
	// out is the outcome so far. Admit writes the spec's echo (Name, the
	// resolved Model, ArrivalNs, DeadlineNs, Steps, Class, SLONs), place
	// the placement fields, and Job fills StepsDone and Path.
	out PlacedJob

	priority int     // the spec's co-run priority
	weight   float64 // the spec's fair-share weight

	steps        int     // total step count
	done         int     // steps retired
	readyNs      float64 // current staging-complete time
	started      bool    // first wave launched
	countedOn    int     // last node the job was counted as executing on (-1 none)
	checkpointNs float64 // pending checkpoint capture time, -1 when none
	path         []int   // migration path as node indices: nil until the first migration
	workKey      string  // pricing key: the model, or InferKey(model, 1)

	// stepWork caches the job's one-step predicted work on its currently
	// assigned node, so the wave scheduler never re-resolves a runtime
	// work cache entry on the hot path; stage keeps it current whenever
	// the job's node changes.
	stepWork float64

	// flowID carries a preempted job's pending migration-flow id until its
	// relaunch binds the arrow; maintained only while the tracer is on.
	flowID int64
}

// jobSegBase is the length of the job table's first segment past the
// slab; segment k holds jobSegBase<<k records. An engine of n streamed jobs
// thus allocates about log2(n/jobSegBase) segments, holds fewer than
// 2n+jobSegBase records, and never copies a record to grow.
const (
	jobSegShift = 6
	jobSegBase  = 1 << jobSegShift
)

// jobSlot maps ji, a job index counted from the end of the slab, to its
// job-table segment and the offset inside it.
func jobSlot(ji int) (seg, off int) {
	x := uint(ji) + jobSegBase
	seg = bits.Len(x) - jobSegShift - 1
	return seg, int(x - jobSegBase<<seg)
}

// modelInfo caches the hardware-independent per-model quantities: the
// parameter payload and its staging transfer over the interconnect.
// Per-hardware work predictions live in each NodeRuntime's own cache.
type modelInfo struct {
	paramBytes float64
	xferNs     float64
}

// Engine is the placement event loop in open, incremental form: a machine
// that admits one job at a time, places it against the live node state at
// its virtual arrival instant, and retires node events (wave launches and
// lockstep round completions) one by one. Nothing about it assumes the
// workload is closed — jobs may keep arriving forever, as long as arrivals
// are fed in nondecreasing virtual-time order — which is what lets the same
// core serve both the batch PlaceJobs wrapper and the streaming pipeline's
// one goroutine: both feed it through Arrive and Drain, which own the
// arrival/event tie rule. Each admitted job is one jobRec, written once at
// admission and never moved: into a slab sized when the engine is built
// (PlaceJobs sizes it to its workload), and past it into a table of
// doubling segments, so a streamed admission costs one record write and,
// now and then, one segment allocation. An Engine is not safe for
// concurrent use; exactly one goroutine must drive it.
type Engine struct {
	// The job table: one jobRec per admitted job in admission order, the
	// first len(jobSlab) in the slab and the rest in segments jobSlot
	// addresses (see job). n counts the admitted jobs.
	jobSlab []jobRec
	jobSegs [bits.UintSize - jobSegShift][]jobRec
	n       int

	// nodes point into one slab of node states, allocated together.
	nodes     []*nodeState
	policy    string // a built-in policy name (checkPolicy)
	arb       multijob.Arbiter
	rts       []NodeRuntime // per node; nodes with equal hardware share one
	uniqueRts []NodeRuntime // the deduplicated runtime set
	memos     []waveMemo    // the wave memo of each uniqueRts entry (gangsig.go)
	ic        *Interconnect
	infos     map[string]*modelInfo

	// Preemption (preempt.go): nil triggers with preemptOn false is the
	// run-to-completion engine.
	preemptOn bool
	triggers  []trigger
	firings   int

	// anyInference arms the latency-class admission path the first time an
	// inference request is admitted; a training-only run never takes it.
	anyInference bool

	events    eventHeap
	idle      idleIndex // quiescent nodes per runtime, kept by push (fused.go)
	idxW      int
	tally     Tally   // every completed job, folded in completion order
	arrivalNs float64 // admission high-water mark: arrivals must not regress

	// Fleet-wide aggregates over every node's staged queue, maintained
	// incrementally wherever a node's queue changes (the queue gauges
	// publish them without a rescan).
	queuedJobs   int
	queuedWorkNs float64

	// Runtime-indexed hot-path tables: rtIdx maps each node to its
	// runtime's position in uniqueRts; rtCap/rtAlpha cache the
	// per-runtime constants so the placement scan never makes an
	// interface call per node; rtWorkBuf is per-pick scratch holding the
	// arriving job's predicted work per distinct runtime.
	rtIdx     []int
	rtCap     []int
	rtAlpha   []float64
	rtWorkBuf []float64

	// Per-round hot-path scratch, reused across events so the steady state
	// allocates nothing per round. The engine is single-threaded, so plain
	// fields suffice. finBuf collects the jobs completed since the current
	// public call began; callers get it as a slice valid until their next
	// call into the engine.
	waveJobBuf  []WaveJob
	tailBuf     []drainTail
	candBuf     []int
	admittedBuf map[int]bool
	finBuf      []int

	// Observability (Options.Obs): tr collects virtual-time trace events,
	// eo holds the pre-bound metric instruments. Both nil when disabled —
	// every emission site guards on that, so the disabled engine pays one
	// nil check and zero allocations. occName caches the per-node
	// occupancy counter-track names, maintained only while tr != nil.
	tr      *obs.Tracer
	eo      *engineObs
	occName []string
}

// NewEngine builds an open placement engine over the cluster: runtimes
// resolved per hardware descriptor, policy/arbiter/triggers parsed, no jobs
// admitted yet.
func NewEngine(c Cluster, opts Options) (*Engine, error) {
	return newEngine(c, opts, 0)
}

// newEngine is NewEngine with a job slab of jobs records, for a caller
// that knows how many jobs it will admit.
func newEngine(c Cluster, opts Options, jobs int) (*Engine, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := checkPolicy(opts.policy()); err != nil {
		return nil, err
	}
	arb, err := multijob.NewArbiter(opts.arbiter())
	if err != nil {
		return nil, fmt.Errorf("place: %w", err)
	}
	triggers, preemptOn, err := parseTriggers(opts.Preempt)
	if err != nil {
		return nil, err
	}

	// One runtime per distinct hardware descriptor: nodes sharing a
	// machine or device share its per-model work cache — and the engine's
	// wave memo for that runtime.
	runtimes := buildRuntimes(c.nodeDescriptors(), arb)

	e := &Engine{
		policy: opts.policy(), arb: arb, rts: runtimes, ic: c.interconnect(),
		infos:     make(map[string]*modelInfo),
		preemptOn: preemptOn, triggers: triggers,
	}
	if jobs > 0 {
		e.jobSlab = make([]jobRec, jobs)
	}
	e.nodes = make([]*nodeState, len(runtimes))
	slab := make([]nodeState, len(runtimes))
	e.rtIdx = make([]int, len(runtimes))
	for i, rt := range runtimes {
		slab[i] = nodeState{rt: rt, minReadyNs: math.Inf(1)}
		e.nodes[i] = &slab[i]
		idx := -1
		for k, u := range e.uniqueRts {
			if u == rt {
				idx = k
				break
			}
		}
		if idx < 0 {
			idx = len(e.uniqueRts)
			e.uniqueRts = append(e.uniqueRts, rt)
			e.rtCap = append(e.rtCap, rt.Capacity())
			e.rtAlpha = append(e.rtAlpha, rt.WaveAlpha())
		}
		e.rtIdx[i] = idx
	}
	e.memos = make([]waveMemo, len(e.uniqueRts))
	e.rtWorkBuf = make([]float64, len(e.uniqueRts))
	e.events = newEventHeap(len(e.nodes))
	e.idle = newIdleIndex(len(e.uniqueRts), e.rtIdx)
	// Node labels pad to the widest index, at least two digits.
	e.idxW = 2
	for n := len(e.nodes) - 1; n >= 100; n /= 10 {
		e.idxW++
	}
	e.attachObs(opts.Obs)
	return e, nil
}

// Admitted is the number of jobs admitted so far; Completed the number that
// have retired every step.
func (e *Engine) Admitted() int  { return e.n }
func (e *Engine) Completed() int { return e.tally.Completed() }

// Tally returns the fold over every job completed so far, in completion
// order: the aggregates Finish seals into the Result.
func (e *Engine) Tally() Tally { return e.tally }

// Admit registers one job with the engine and returns its job index. The
// spec must be individually valid (JobSpec.Check) and its arrival must not
// precede any earlier admission — the engine's clock never runs backwards;
// a streaming caller (pipeline.Pipeline) clamps out-of-order arrivals
// before calling Admit. Admission alone does not place the job: call
// PlaceAuto when the virtual clock reaches its arrival, or use Arrive,
// which does both.
func (e *Engine) Admit(j JobSpec) (int, error) {
	canon, err := nn.Resolve(j.Model)
	if err != nil {
		return -1, fmt.Errorf("place: %w", err)
	}
	if j.ArrivalNs < e.arrivalNs {
		return -1, fmt.Errorf("place: job %s arrives at %v, before the admission clock %v",
			j.label(e.n), j.ArrivalNs, e.arrivalNs)
	}
	e.arrivalNs = j.ArrivalNs
	ji := e.n
	j.Model = canon
	key := canon
	if j.Inference() {
		key = InferKey(canon, 1)
		e.anyInference = true
	}
	if s := ji - len(e.jobSlab); s >= 0 {
		if seg, off := jobSlot(s); off == 0 {
			e.jobSegs[seg] = make([]jobRec, jobSegBase<<seg)
		}
	}
	// The slot is fresh zeroed memory written only here, so setting the
	// non-zero fields one by one stands for a whole-record write.
	r := e.job(ji)
	p := &r.out
	p.Name, p.Model = j.label(ji), canon
	p.ArrivalNs, p.DeadlineNs = j.ArrivalNs, j.DeadlineNs
	p.Steps, p.Class, p.SLONs = j.steps(), j.EffectiveClass(), j.SLONs
	r.priority, r.weight = j.Priority, j.Weight
	r.steps, r.countedOn, r.checkpointNs, r.workKey = p.Steps, -1, -1, key
	e.n++
	if e.eo != nil {
		e.eo.admitted.Inc()
	}
	if e.tr != nil {
		e.tr.AsyncBegin(obsPidJobs, int64(ji), p.Name, "job", j.ArrivalNs,
			obs.A("model", canon), obs.A("class", p.Class),
			obs.A("steps", r.steps))
	}
	return ji, nil
}

// NextEventNs is the earliest pending node event on the cluster clock
// (+Inf, false when no wave can launch or progress without more arrivals).
func (e *Engine) NextEventNs() (float64, bool) {
	node, t := e.peek()
	return t, node >= 0
}

// ProcessNextEvent retires the earliest pending node event — a wave launch
// or a lockstep round completion — and returns the indices of the jobs that
// finished their last step during it, in wave order. The slice is valid
// until the next call into the engine.
func (e *Engine) ProcessNextEvent() ([]int, error) {
	e.finBuf = e.finBuf[:0]
	err := e.step()
	return e.finBuf, err
}

// step retires the earliest pending node event, appending the jobs it
// completes to finBuf.
func (e *Engine) step() error {
	node, t := e.peek()
	if node < 0 {
		return fmt.Errorf("place: no pending node event")
	}
	e.events.pop()
	if e.eo != nil {
		e.eo.events.Inc()
	}
	if e.nodes[node].wave != nil {
		return e.finishRound(node)
	}
	return e.launchWave(node, t)
}

// AdvanceTo retires every node event at or before t, returning all jobs
// completed along the way (valid until the next call into the engine). It
// never admits or places; Arrive owns arrival interleaving.
func (e *Engine) AdvanceTo(t float64) ([]int, error) {
	e.finBuf = e.finBuf[:0]
	for {
		node, et := e.peek()
		if node < 0 || et > t {
			return e.finBuf, nil
		}
		if err := e.step(); err != nil {
			return e.finBuf, err
		}
	}
}

// Arrive feeds one arrival to the engine under the tie rule every driver
// shares: node events strictly before the arrival retire first, so a job
// arriving exactly as a node frees can still influence (or join) that
// node's next wave; then the job is admitted (see Admit) and placed by the
// engine's policy at its arrival instant. It returns the jobs that
// completed while the clock advanced, in retirement order — a slice valid
// until the next call into the engine.
func (e *Engine) Arrive(j JobSpec) ([]int, error) {
	e.finBuf = e.finBuf[:0]
	for {
		node, t := e.peek()
		if node < 0 || t >= j.ArrivalNs {
			break
		}
		if err := e.step(); err != nil {
			return e.finBuf, err
		}
	}
	ji, err := e.Admit(j)
	if err != nil {
		return e.finBuf, err
	}
	return e.finBuf, e.PlaceAuto(ji, j.ArrivalNs)
}

// Drain retires node events until every admitted job has completed and
// returns the completions in retirement order (valid until the next call
// into the engine). Admitted work with no runnable wave left is a stall,
// reported as an error.
func (e *Engine) Drain() ([]int, error) {
	e.finBuf = e.finBuf[:0]
	for e.tally.Completed() < e.n {
		if node, _ := e.peek(); node < 0 {
			return e.finBuf, fmt.Errorf("place: stalled with %d of %d jobs done and no runnable wave",
				e.tally.Completed(), e.n)
		}
		if err := e.step(); err != nil {
			return e.finBuf, err
		}
	}
	return e.finBuf, nil
}

// job returns admitted job ji's record.
func (e *Engine) job(ji int) *jobRec {
	if ji < len(e.jobSlab) {
		return &e.jobSlab[ji]
	}
	seg, off := jobSlot(ji - len(e.jobSlab))
	return &e.jobSegs[seg][off]
}

// Job snapshots job ji's current outcome: execution-derived step counts and
// the migration path rendered so far. Valid any time after placement.
func (e *Engine) Job(ji int) PlacedJob {
	if ji < 0 || ji >= e.n {
		panic(fmt.Sprintf("place: job %d of %d admitted", ji, e.n))
	}
	r := e.job(ji)
	p := r.out
	p.StepsDone = r.done
	p.Path = e.renderPath(r.path)
	return p
}

// Finish seals the run and builds the Result: per-job outcomes in admission
// order plus per-node usage and the aggregate metrics, read from the
// engine's Tally. Result.Jobs is a fresh slice that shares nothing with the
// engine. Call it once, after every admitted job has completed (a caller
// that stalls earlier should surface its own error — Finish reports
// whatever retired, and its aggregates count only the retired jobs).
func (e *Engine) Finish() *Result {
	return e.finish(nil)
}

// finish is Finish with job ji's outcome written to Jobs[pos[ji]] instead
// of Jobs[ji] when pos is non-nil (a permutation of the admitted jobs), so
// a caller wanting another order gathers each outcome once.
func (e *Engine) finish(pos []int) *Result {
	jobs := make([]PlacedJob, e.n)
	for ji := range jobs {
		at := ji
		if pos != nil {
			at = pos[ji]
		}
		r := e.job(ji)
		p := &jobs[at]
		*p = r.out
		p.StepsDone = r.done
		p.Path = e.renderPath(r.path)
	}
	out := &Result{
		Policy: e.policy, Arbiter: e.arb.Name(), Nodes: len(e.nodes),
		Fleet: fleetDescription(e.rts), Jobs: jobs,
		Preempt: specName(e.preemptOn, e.triggers), TriggerFirings: e.firings,
	}
	for i, ns := range e.nodes {
		out.NodeStats = append(out.NodeStats, NodeStats{
			Node: i, Kind: ns.rt.Kind(), Hardware: ns.rt.Hardware(),
			Jobs: ns.jobs, Waves: ns.waves, BusyNs: ns.busyNs,
		})
	}
	out.finalize(&e.tally)
	if e.eo != nil {
		// Seal the sampled instruments and attach the registry's final
		// exposition to the Result — a diagnostic rider, never rendered.
		e.ObsSample()
		out.MetricsDump = e.eo.reg.PrometheusText()
	}
	return out
}

// info caches per-model parameter payload and staging transfer.
func (e *Engine) info(model string) *modelInfo {
	if mi, ok := e.infos[model]; ok {
		return mi
	}
	pb := paramBytes(modelGraph(model))
	mi := &modelInfo{paramBytes: pb, xferNs: e.ic.TransferNs(pb)}
	e.infos[model] = mi
	return mi
}

// push re-indexes node i in the event heap at its next event and in the
// quiescent-node index. Every change to a node's wave or queue ends in a
// push before the next arrival is placed.
func (e *Engine) push(i int) {
	ns := e.nodes[i]
	e.events.set(i, ns.nextEventNs())
	e.idle.mark(e.rtIdx[i], i, ns.wave == nil && len(ns.queue) == 0)
}

// peek returns the earliest pending node event on (time, node index), or
// (-1, +Inf) when none is pending.
func (e *Engine) peek() (int, float64) {
	return e.events.top()
}

// queueDelta folds one node's staged-queue change into the fleet-wide
// aggregates and, with metrics attached, the queue gauges. An empty fleet
// queue resets the work sum, so float residue from the incremental adds
// and subtracts never accumulates across a run.
func (e *Engine) queueDelta(dJobs int, dWorkNs float64) {
	e.queuedJobs += dJobs
	e.queuedWorkNs += dWorkNs
	if e.queuedJobs == 0 {
		e.queuedWorkNs = 0
	}
	if e.eo != nil {
		e.obsQueueGauges()
	}
}

// WaveMemoStats sums the fleet's wave-memo counters: cache hits are waves
// priced without a simulation, misses are simulations run.
func (e *Engine) WaveMemoStats() (hits, misses int) {
	for i := range e.memos {
		hits += e.memos[i].hits
		misses += e.memos[i].misses
	}
	return hits, misses
}

// pathSeg renders one node hop for a job's migration path.
func (e *Engine) pathSeg(n int) string {
	return fmt.Sprintf("n%0*d/%s", e.idxW, n, e.nodes[n].rt.Kind())
}

// renderPath renders a job's migration path, "" for a job that never
// migrated.
func (e *Engine) renderPath(hops []int) string {
	if len(hops) < 2 {
		return ""
	}
	segs := make([]string, len(hops))
	for i, n := range hops {
		segs[i] = e.pathSeg(n)
	}
	return strings.Join(segs, " -> ")
}

// inference reports whether the job is an inference request.
func (r *jobRec) inference() bool { return r.out.Class == ClassInference }

// remainingNs prices the job's unfinished steps on the node it is currently
// assigned to, from the per-job step-work cache stage maintains — no
// runtime cache lookup on the hot path. Inference requests price at their
// forward-only serving graph (their work key), not the model's training
// step.
func (r *jobRec) remainingNs() float64 {
	return float64(r.steps-r.done) * r.stepWork
}

// jobWorkPerRuntime fills the engine's per-pick scratch with job ji's
// predicted solo work for its remaining steps (all of them at arrival) per
// distinct runtime (the work every node sharing that runtime would price it
// at), resolving each runtime's work cache exactly once.
func (e *Engine) jobWorkPerRuntime(ji int) []float64 {
	r := e.job(ji)
	model := r.workKey
	steps := float64(r.steps - r.done)
	work := e.rtWorkBuf
	for k, rt := range e.uniqueRts {
		work[k] = steps * rt.SoloWorkNs(model)
	}
	return work
}

// PlaceAuto places admitted job ji at its arrival instant using the
// engine's own policy (fusedPick) and gives the armed preemption triggers a
// chance to cut a wave.
func (e *Engine) PlaceAuto(ji int, at float64) error {
	// Wall-clock scan timing is observability-only: it is read solely when
	// metrics are attached and never feeds the virtual clock, so it cannot
	// perturb a decision.
	var scanT0 time.Time
	if e.eo != nil {
		scanT0 = time.Now()
	}
	n := e.fusedPick(ji, at)
	if e.eo != nil {
		e.eo.placeScanNs.Observe(float64(time.Since(scanT0)))
	}
	return e.place(ji, n, at)
}

// place stages admitted job ji on node n at its arrival instant and gives
// the armed preemption triggers a chance to cut a wave.
func (e *Engine) place(ji, n int, at float64) error {
	r := e.job(ji)
	if n < 0 || n >= len(e.nodes) {
		return fmt.Errorf("place: policy %q placed job %s on node %d of a %d-node cluster",
			e.policy, r.out.Name, n, len(e.nodes))
	}
	// An inference request stages its serving graph's payload — next to no
	// parameters, so effectively just the interconnect latency — not the
	// training model's optimizer state.
	mi := e.info(r.workKey)
	ns := e.nodes[n]
	p := &r.out
	p.Node, p.Kind = n, ns.rt.Kind()
	p.ArrivalNs, p.TransferNs, p.ReadyNs = at, mi.xferNs, at+mi.xferNs
	if e.tr != nil {
		e.tr.AsyncInstant(obsPidJobs, int64(ji), "place", "job", at,
			obs.A("node", n), obs.A("kind", ns.rt.Kind()))
	}
	e.stage(ji, n, at+mi.xferNs)
	e.fireTriggers(ji, n, at)
	return nil
}

// stage queues job ji on node n behind its wave, ready at readyNs: the
// job's step work is re-priced on n's hardware, its remaining work joins
// the node's and the fleet's queue aggregates, and n is re-indexed in the
// event heap. Arrivals and checkpoint restarts both enter a node here.
func (e *Engine) stage(ji, n int, readyNs float64) {
	r := e.job(ji)
	ns := e.nodes[n]
	r.readyNs = readyNs
	r.stepWork = ns.rt.SoloWorkNs(r.workKey)
	work := r.remainingNs()
	ns.queue = append(ns.queue, ji)
	ns.queuedWorkNs += work
	e.queueDelta(1, work)
	if readyNs < ns.minReadyNs {
		ns.minReadyNs = readyNs
	}
	e.push(n)
}

// maxDynamicBatch caps how many same-model inference requests one wave
// slot folds into a single batch-sized forward step.
const maxDynamicBatch = 8

// selectWave computes the staged-and-ready jobs that would join node n's
// next wave launched at startNs: up to the hardware's wave capacity, and on
// a memory-bound node (a GPU) only while the working sets fit the device
// budget — though a lone job is always admitted so an oversized model still
// runs. Inference requests are latency-class: they jump every training
// candidate (earliest SLO deadline first), and same-model requests fold
// into one dynamic batch per slot — the leader occupies the slot, its
// followers ride the batch-sized forward step for free. Behind them, GPU
// nodes pack training jobs shortest-predicted-first (stable, so equal-work
// jobs keep placement order); CPU nodes admit training jobs in placement
// order.
//
// selectWave commits nothing to node or job state — admitWave owns the
// queue compaction. It builds the admitted list in the node's wave record,
// which is idle whenever a wave can launch.
func (e *Engine) selectWave(n int, startNs float64) ([]int, map[int][]int) {
	ns := e.nodes[n]
	capacity := ns.rt.Capacity()
	memCap := ns.rt.MemCapacityBytes()
	cands := e.candBuf[:0]
	for _, ji := range ns.queue {
		if e.job(ji).readyNs <= startNs {
			cands = append(cands, ji)
		}
	}
	e.candBuf = cands
	trainStart := 0
	if e.anyInference {
		// Latency-class first: inference requests ahead of training,
		// ordered by SLO deadline (requests without one last); ties and
		// the training suffix keep placement order (stable).
		slices.SortStableFunc(cands, func(a, b int) int {
			ra, rb := e.job(a), e.job(b)
			ia, ib := ra.inference(), rb.inference()
			if ia != ib {
				if ia {
					return -1
				}
				return 1
			}
			if !ia {
				return 0
			}
			sa, sb := &ra.out, &rb.out
			da, db := math.Inf(1), math.Inf(1)
			if sa.SLONs > 0 {
				da = sa.ArrivalNs + sa.SLONs
			}
			if sb.SLONs > 0 {
				db = sb.ArrivalNs + sb.SLONs
			}
			return cmp.Compare(da, db)
		})
		for trainStart < len(cands) && e.job(cands[trainStart]).inference() {
			trainStart++
		}
	}
	if ns.rt.Kind() == KindGPU {
		// Highest priority first, then shortest remaining work — a
		// resumed checkpoint is priced at its unfinished steps, not its
		// per-step time, and a preemption's beneficiary is never crowded
		// out of the relaunch by the very jobs it displaced. Equal keys
		// keep placement order (stable).
		slices.SortStableFunc(cands[trainStart:], func(a, b int) int {
			ra, rb := e.job(a), e.job(b)
			if ra.priority != rb.priority {
				return cmp.Compare(rb.priority, ra.priority)
			}
			return cmp.Compare(ra.remainingNs(), rb.remainingNs())
		})
	}
	// admit fills the node's idle wave record's active array; the
	// membership set is reused scratch.
	admit := ns.waveRec.active[:0]
	if e.admittedBuf == nil {
		e.admittedBuf = make(map[int]bool, len(cands))
	} else {
		clear(e.admittedBuf)
	}
	admitted := e.admittedBuf
	var batch map[int][]int
	memUsed := 0.0
	for ci, ji := range cands {
		if len(admit) >= capacity {
			break
		}
		if admitted[ji] {
			continue
		}
		r := e.job(ji)
		model := r.out.Model
		var group []int
		if r.inference() {
			// Fold later same-model requests into this slot's dynamic
			// batch; the deadline sort already put the most urgent ones
			// first, so a batch never delays a tighter request behind a
			// looser leader.
			for _, fj := range cands[ci+1:] {
				if 1+len(group) >= maxDynamicBatch {
					break
				}
				if admitted[fj] {
					continue
				}
				if f := e.job(fj); !f.inference() || f.out.Model != model {
					continue
				}
				group = append(group, fj)
			}
		}
		if memCap > 0 {
			key := r.workKey
			if len(group) > 0 {
				key = InferKey(model, 1+len(group))
			}
			need := ns.rt.JobMemBytes(key)
			if len(admit) > 0 && memUsed+need > memCap {
				continue
			}
			memUsed += need
		}
		admit = append(admit, ji)
		admitted[ji] = true
		if len(group) > 0 {
			if batch == nil {
				batch = make(map[int][]int)
			}
			batch[ji] = group
			for _, fj := range group {
				admitted[fj] = true
			}
		}
	}
	return admit, batch
}

// admitWave commits selectWave's choice for node n: the admitted jobs (and
// their dynamic-batch followers) leave the staged queue, and the node's
// incremental queue aggregates are rebuilt over what remains.
func (e *Engine) admitWave(n int, startNs float64) ([]int, map[int][]int) {
	ns := e.nodes[n]
	prevQueued, prevWorkNs := len(ns.queue), ns.queuedWorkNs
	admit, batch := e.selectWave(n, startNs)
	// selectWave marked everything leaving the queue in admittedBuf;
	// reuse that membership set for the compaction.
	admitted := e.admittedBuf
	// Compact the queue in place: the write index never passes the read
	// index, so filtering into queue[:0] is safe and allocation-free.
	rest := ns.queue[:0]
	for _, ji := range ns.queue {
		if !admitted[ji] {
			rest = append(rest, ji)
		}
	}
	ns.queue = rest
	ns.queuedWorkNs, ns.minReadyNs = 0, math.Inf(1)
	for _, ji := range rest {
		r := e.job(ji)
		ns.queuedWorkNs += r.remainingNs()
		if r.readyNs < ns.minReadyNs {
			ns.minReadyNs = r.readyNs
		}
	}
	e.queueDelta(len(rest)-prevQueued, ns.queuedWorkNs-prevWorkNs)
	return admit, batch
}

// launchWave starts a new gang wave on node n at startNs.
func (e *Engine) launchWave(n int, startNs float64) error {
	ns := e.nodes[n]
	admit, batch := e.admitWave(n, startNs)
	if len(admit) == 0 {
		return fmt.Errorf("place: node %d woke with no admissible job", n)
	}
	w := &ns.waveRec
	*w = waveState{ord: ns.waves, active: admit, batch: batch}
	ns.wave = w
	ns.waves++
	if e.eo != nil {
		e.eo.waveLaunches.Inc()
	}
	if e.tr != nil {
		e.tr.CounterEvent(obsPidNodes, n, e.occName[n], startNs, obs.A("jobs", len(admit)))
	}
	launch := func(ji, batched int) {
		// A job counts toward a node's executed jobs once per node it
		// runs on: a checkpoint resuming where it was preempted is not a
		// new job, a migrated one genuinely executed on both nodes.
		r := e.job(ji)
		if r.countedOn != n {
			r.countedOn = n
			ns.jobs++
		}
		p := &r.out
		p.Wave = w.ord
		p.Batched = batched
		if !r.started {
			r.started = true
			p.StartNs = startNs
			p.QueueNs = startNs - p.ArrivalNs
		}
		if r.checkpointNs >= 0 {
			p.DisruptionNs += startNs - r.checkpointNs
			r.checkpointNs = -1
			if e.tr != nil && r.flowID != 0 {
				// Bind the migration arrow started at the preemption to
				// this relaunch, and mark the resume on the job's span.
				e.tr.FlowEnd(obsPidNodes, n, r.flowID, "migrate", "preempt", startNs)
				e.tr.AsyncInstant(obsPidJobs, int64(ji), "resume", "job", startNs,
					obs.A("node", n))
				r.flowID = 0
			}
		}
	}
	for _, ji := range admit {
		size := 0
		if e.job(ji).inference() {
			size = 1 + len(batch[ji])
		}
		launch(ji, size)
		// Followers of a dynamic batch launch with their slot's leader.
		for _, fj := range batch[ji] {
			launch(fj, size)
		}
	}
	return e.runRound(n, startNs)
}

// runRound prices one lockstep round — one training step of every active
// job — through the wave memo of the node's runtime, simulating on a miss,
// and schedules the round-end event. The WaveJob slice is engine-owned
// scratch: runtimes read it only for the duration of RunWave.
func (e *Engine) runRound(n int, startNs float64) error {
	ns := e.nodes[n]
	w := ns.wave
	jobs := e.waveJobBuf[:0]
	for _, ji := range w.active {
		r := e.job(ji)
		wj := WaveJob{Name: r.out.Name, Model: r.out.Model, Priority: r.priority, Weight: r.weight}
		if r.inference() {
			// An inference slot runs one batch-sized forward step: its
			// work key carries the dynamic batch size, so every cache
			// (runtime work, wave memo) prices it distinctly.
			wj.Model = InferKey(r.out.Model, 1+len(w.batch[ji]))
			wj.Class = ClassInference
		}
		jobs = append(jobs, wj)
	}
	e.waveJobBuf = jobs
	res, err := e.memos[e.rtIdx[n]].do(jobs, ns.rt.RunWave)
	if err != nil {
		return fmt.Errorf("place: wave %d on node %d: %w", w.ord, n, err)
	}
	w.res = res
	w.roundStartNs = startNs
	w.roundEndNs = startNs + res.TotalNs
	w.drainNs = w.roundEndNs + e.drainTailNs(w)
	ns.busyNs += res.TotalNs
	e.push(n)
	return nil
}

// drainTailNs estimates the wave's remaining duration past the current
// round under the lockstep model with the current round's per-step
// makespans frozen: future round r lasts as long as the longest step among
// the jobs with more than r rounds still to run. Zero when every active
// job retires its last step this round — the single-step case. Sorting by
// remaining rounds and walking suffix maxima makes one call cost
// O(jobs log jobs + remaining rounds). It runs once per round, though, so
// a wave of R rounds pays O(R²) in total: placing a single 100k-step
// LSTM job takes about 8.8 s on a 2-vCPU x86 host. Summing per segment of
// equal active sets would be O(jobs log jobs) per call, but it rounds
// differently from the per-round sum, so it would move reports.
func (e *Engine) drainTailNs(w *waveState) float64 {
	tails := e.tailBuf[:0]
	for k, ji := range w.active {
		r := e.job(ji)
		tails = append(tails, drainTail{rem: r.steps - r.done - 1, span: w.res.Jobs[k].MakespanNs})
	}
	e.tailBuf = tails
	slices.SortFunc(tails, func(a, b drainTail) int { return cmp.Compare(b.rem, a.rem) })
	// Walk rounds from the farthest back: the active set only grows as r
	// decreases, so a running maximum over the sorted prefix prices each
	// round in amortized O(1).
	total, longest := 0.0, 0.0
	idx := 0
	if len(tails) == 0 {
		return 0
	}
	for r := tails[0].rem - 1; r >= 0; r-- {
		for idx < len(tails) && tails[idx].rem > r {
			if tails[idx].span > longest {
				longest = tails[idx].span
			}
			idx++
		}
		total += longest
	}
	return total
}

// completeLastStep banks job ji's last step, run in the round that began
// at roundStartNs with slot outcome jr, and completes the job: it leaves
// the wave at its own step's finish inside the round, not the round's end.
func (e *Engine) completeLastStep(ji int, jr WaveJobResult, roundStartNs float64) {
	r := e.job(ji)
	r.done++
	p := &r.out
	p.SoloNs += jr.SoloNs
	p.CoRunNs += jr.MakespanNs
	p.FinishNs = roundStartNs + jr.MakespanNs
	if p.SoloNs > 0 {
		p.CoRunSlowdown = p.CoRunNs / p.SoloNs
		p.Slowdown = p.JCTNs() / p.SoloNs
	}
	p.DeadlineMet = p.DeadlineNs > 0 && p.FinishNs <= p.DeadlineNs
	p.SLOMet = p.SLONs > 0 && p.FinishNs <= p.ArrivalNs+p.SLONs
	e.tally.Add(p)
	e.finBuf = append(e.finBuf, ji)
	if e.eo != nil || e.tr != nil {
		e.obsComplete(ji, p)
	}
}

// finishRound retires the current round at its end: every active job banks
// one step; jobs out of steps complete, and the wave either ends, is cut
// into checkpoints, or rolls into its next round. It appends the jobs that
// completed to finBuf, in wave order.
func (e *Engine) finishRound(n int) error {
	ns := e.nodes[n]
	w := ns.wave
	t := w.roundEndNs
	if e.eo != nil {
		e.eo.waveRounds.Inc()
	}
	if e.tr != nil {
		e.tr.Complete(obsPidNodes, n, fmt.Sprintf("wave %d", w.ord), "wave",
			w.roundStartNs, t-w.roundStartNs, obs.A("jobs", len(w.active)))
	}
	// The jobs with steps left compact into active's own array: the write
	// index never passes the read index, and w.active keeps its length
	// until the gang-size check below.
	remain := w.active[:0]
	for k, ji := range w.active {
		jr := w.res.Jobs[k]
		r := e.job(ji)
		if r.done+1 >= r.steps {
			// The job's last step. A dynamic batch's followers rode this
			// slot's forward step: they finish with their leader, sharing
			// its wave outcome.
			e.completeLastStep(ji, jr, w.roundStartNs)
			for _, fj := range w.batch[ji] {
				e.completeLastStep(fj, jr, w.roundStartNs)
			}
		} else {
			// Lockstep: the job waits out the round before its next step.
			r.done++
			r.out.SoloNs += jr.SoloNs
			r.out.CoRunNs += w.res.TotalNs
			remain = append(remain, ji)
		}
	}
	switch {
	case len(remain) == 0:
		ns.wave = nil
		ns.freeNs = t
		if e.tr != nil {
			e.tr.CounterEvent(obsPidNodes, n, e.occName[n], t, obs.A("jobs", 0))
		}
		e.push(n)
	case w.cut:
		ns.wave = nil
		ns.freeNs = t
		if e.tr != nil {
			e.tr.CounterEvent(obsPidNodes, n, e.occName[n], t, obs.A("jobs", 0))
		}
		e.checkpointWave(n, remain, t)
		e.push(n)
	default:
		// The gang shrank only if someone completed; an unchanged gang
		// re-prices to the identical round (RunWave is a deterministic
		// pure function of the job set), so reuse the result instead of
		// re-simulating — an S-step wave costs one simulation per
		// distinct membership, not per round.
		if len(remain) == len(w.active) {
			w.roundStartNs = t
			w.roundEndNs = t + w.res.TotalNs
			w.drainNs = w.roundEndNs + e.drainTailNs(w)
			ns.busyNs += w.res.TotalNs
			e.push(n)
			return nil
		}
		w.active = remain
		if e.tr != nil {
			e.tr.CounterEvent(obsPidNodes, n, e.occName[n], t, obs.A("jobs", len(remain)))
		}
		return e.runRound(n, t)
	}
	return nil
}

// graphKey keys a work key's graph in the process-wide derived table.
type graphKey string

// modelGraph returns the graph a work key prices, built once per process
// (perfmodel.Derive): buildModelGraph is a pure function of the key, and
// every consumer only reads the graph.
func modelGraph(key string) *graph.Graph {
	return perfmodel.Derive(graphKey(key), func() any { return buildModelGraph(key) }).(*graph.Graph)
}

// buildModelGraph builds the graph a work key prices: the training step
// for a model name, the forward-only serving graph at its dynamic batch
// size for an inference key.
func buildModelGraph(key string) *graph.Graph {
	if base, batch, ok := parseInferKey(key); ok {
		return nn.MustBuildInference(base, batch).Graph
	}
	return nn.MustBuild(key).Graph
}

// buildRuntimes resolves every node descriptor to its NodeRuntime, sharing
// one runtime — its per-model work cache — across nodes with the same
// hardware descriptor.
func buildRuntimes(descs []Node, arb multijob.Arbiter) []NodeRuntime {
	cpus := make(map[*hw.Machine]*cpuRuntime)
	gpus := make(map[*gpu.Device]*gpuRuntime)
	rts := make([]NodeRuntime, len(descs))
	for i, d := range descs {
		if d.GPU != nil {
			rt, ok := gpus[d.GPU]
			if !ok {
				rt = &gpuRuntime{d: d.GPU, hardware: d.GPU.String()}
				gpus[d.GPU] = rt
			}
			rts[i] = rt
			continue
		}
		rt, ok := cpus[d.CPU]
		if !ok {
			rt = &cpuRuntime{m: d.CPU, hardware: d.CPU.String(), arb: arb}
			cpus[d.CPU] = rt
		}
		rts[i] = rt
	}
	return rts
}
