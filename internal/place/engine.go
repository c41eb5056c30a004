package place

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"opsched/internal/core"
	"opsched/internal/gpu"
	"opsched/internal/graph"
	"opsched/internal/hw"
	"opsched/internal/multijob"
	"opsched/internal/nn"
	"opsched/internal/obs"
	"opsched/internal/perfmodel"
	"opsched/internal/preempt"
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
	wave   *waveState // in-flight gang wave, nil when idle
	freeNs float64    // when the node last became idle — valid while wave == nil
	queue  []int      // workload indices staged behind the wave, placement order

	// Incremental aggregates over queue, maintained so neither the wave
	// scheduler nor a policy snapshot ever rescans every queued job:
	// queuedWorkNs prices the queue's remaining steps on this node's
	// hardware, minReadyNs is the earliest staged-job ready time (+Inf
	// when empty).
	queuedWorkNs float64
	minReadyNs   float64

	// version invalidates this node's entries in the event heap: an entry
	// pushed under an older version is stale and skipped.
	version int

	waves  int
	jobs   int
	busyNs float64
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

// viewFreeNs is the horizon a policy or trigger sees: the wave's predicted
// drain while one is in flight, else when the node went idle.
func (ns *nodeState) viewFreeNs() float64 {
	if ns.wave != nil {
		return ns.wave.drainNs
	}
	return ns.freeNs
}

// residentCount is the in-flight wave's job count (0 when idle).
func (ns *nodeState) residentCount() int {
	if ns.wave == nil {
		return 0
	}
	return len(ns.wave.active)
}

// drainTail is one active job's contribution to a wave's drain estimate:
// rounds remaining past the current one and the frozen per-step span.
type drainTail struct {
	rem  int
	span float64
}

// waveEntry is one candidate node event in the event loop's min-heap.
type waveEntry struct {
	startNs float64
	node    int
	version int
}

// waveHeap orders candidate node events by time, breaking ties on the
// lower node index — the same deterministic order the former linear scan
// produced, now at O(log nodes) per event instead of O(jobs × nodes).
// Entries are never removed in place: re-indexing a node bumps its version
// and the stale entry is skipped when it reaches the top.
type waveHeap []waveEntry

func (h waveHeap) Len() int { return len(h) }
func (h waveHeap) Less(a, b int) bool {
	if h[a].startNs != h[b].startNs {
		return h[a].startNs < h[b].startNs
	}
	return h[a].node < h[b].node
}
func (h waveHeap) Swap(a, b int)       { h[a], h[b] = h[b], h[a] }
func (h *waveHeap) Push(x interface{}) { *h = append(*h, x.(waveEntry)) }
func (h *waveHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
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
// execution stage: both feed it through Arrive and Drain, which own the
// arrival/event tie rule. An Engine is not safe for concurrent use; exactly
// one goroutine must drive it.
type Engine struct {
	specs     []JobSpec
	nodes     []*nodeState
	placed    []PlacedJob
	policy    string // a built-in policy name (checkPolicy)
	arb       multijob.Arbiter
	rts       []NodeRuntime // per node; nodes with equal hardware share one
	uniqueRts []NodeRuntime // the deduplicated runtime set
	ic        *Interconnect
	infos     map[string]*modelInfo

	// Preemption machinery: nil triggers with preemptOn false is the
	// run-to-completion engine.
	preemptOn bool
	triggers  []preempt.Trigger
	migrator  preempt.Migrator
	firings   int

	steps        []int     // per-job total step count
	done         []int     // per-job steps retired
	readyNs      []float64 // per-job current staging-complete time
	started      []bool    // per-job "first wave launched"
	countedOn    []int     // last node the job was counted as executing on (-1 none)
	checkpointNs []float64 // per-job pending checkpoint capture time, -1 when none
	path         [][]int   // per-job migration path as node indices: nil until the first migration
	workKeys     []string  // per-job pricing key: the model, or InferKey(model, 1)

	// anyInference arms the latency-class admission path the first time an
	// inference request is admitted; a training-only run never takes it.
	anyInference bool

	events    waveHeap
	idxW      int
	completed int
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

	// stepWork caches each job's one-step predicted work on its currently
	// assigned node, so the wave scheduler never re-resolves a runtime
	// work cache entry on the hot path; place and checkpointWave keep it
	// current whenever the job's node changes.
	stepWork []float64

	// Per-round hot-path scratch, reused across events so the steady state
	// allocates nothing per round. The engine is single-threaded, so plain
	// fields suffice. finBuf collects the jobs completed since the current
	// public call began; callers get it as a slice valid until their next
	// call into the engine.
	waveJobBuf  []WaveJob
	tailBuf     []drainTail
	candBuf     []int
	admittedBuf map[int]bool
	snapBuf     []preempt.NodeSnapshot
	finBuf      []int

	// Observability (Options.Obs): tr collects virtual-time trace events,
	// eo holds the pre-bound metric instruments. Both nil when disabled —
	// every emission site guards on that, so the disabled engine pays one
	// nil check and zero allocations. flowID carries each preempted job's
	// pending migration-flow id until its relaunch binds the arrow;
	// occName caches the per-node occupancy counter-track names. Both are
	// maintained only while tr != nil.
	tr      *obs.Tracer
	eo      *engineObs
	flowID  []int64
	occName []string
}

// NewEngine builds an open placement engine over the cluster: runtimes
// resolved per hardware descriptor, policy/arbiter/triggers parsed, no jobs
// admitted yet.
func NewEngine(c Cluster, opts Options) (*Engine, error) {
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
	triggers, preemptOn, err := preempt.ParseTriggers(opts.Preempt)
	if err != nil {
		return nil, fmt.Errorf("place: %w", err)
	}

	// One runtime per distinct hardware descriptor: nodes sharing a
	// machine or device share its per-model work cache — and its
	// fleet-wide wave memo.
	runtimes := buildRuntimes(c.nodeDescriptors(), arb, opts.config(), opts.NoWaveMemo)

	e := &Engine{
		policy: opts.policy(), arb: arb, rts: runtimes, ic: c.interconnect(),
		infos:     make(map[string]*modelInfo),
		preemptOn: preemptOn, triggers: triggers,
	}
	e.nodes = make([]*nodeState, len(runtimes))
	e.rtIdx = make([]int, len(runtimes))
	for i, rt := range runtimes {
		e.nodes[i] = &nodeState{rt: rt, minReadyNs: math.Inf(1)}
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
	e.rtWorkBuf = make([]float64, len(e.uniqueRts))
	e.idxW = len(fmt.Sprintf("%d", len(e.nodes)-1))
	if e.idxW < 2 {
		e.idxW = 2
	}
	e.attachObs(opts.Obs)
	return e, nil
}

// Admitted is the number of jobs admitted so far; Completed the number that
// have retired every step.
func (e *Engine) Admitted() int  { return len(e.specs) }
func (e *Engine) Completed() int { return e.completed }

// Admit registers one job with the engine and returns its job index. The
// spec must be individually valid (JobSpec.Check) and its arrival must not
// precede any earlier admission — the engine's clock never runs backwards;
// a streaming admission stage clamps out-of-order arrivals before calling
// Admit. Admission alone does not place the job: call PlaceAuto when the
// virtual clock reaches its arrival, or use Arrive, which does both.
func (e *Engine) Admit(j JobSpec) (int, error) {
	canon, err := nn.Resolve(j.Model)
	if err != nil {
		return -1, fmt.Errorf("place: %w", err)
	}
	if j.ArrivalNs < e.arrivalNs {
		return -1, fmt.Errorf("place: job %s arrives at %v, before the admission clock %v",
			j.label(len(e.specs)), j.ArrivalNs, e.arrivalNs)
	}
	e.arrivalNs = j.ArrivalNs
	j.Model = canon
	j.Name = j.label(len(e.specs))
	ji := len(e.specs)
	e.specs = append(e.specs, j)
	e.placed = append(e.placed, PlacedJob{})
	e.steps = append(e.steps, j.steps())
	e.done = append(e.done, 0)
	e.readyNs = append(e.readyNs, 0)
	e.started = append(e.started, false)
	e.countedOn = append(e.countedOn, -1)
	e.checkpointNs = append(e.checkpointNs, -1)
	e.path = append(e.path, nil)
	e.stepWork = append(e.stepWork, 0)
	key := canon
	if j.Inference() {
		key = InferKey(canon, 1)
		e.anyInference = true
	}
	e.workKeys = append(e.workKeys, key)
	if e.eo != nil {
		e.eo.admitted.Inc()
	}
	if e.tr != nil {
		e.flowID = append(e.flowID, 0)
		e.tr.AsyncBegin(obsPidJobs, int64(ji), j.Name, "job", j.ArrivalNs,
			obs.A("model", j.Model), obs.A("class", j.EffectiveClass()),
			obs.A("steps", e.steps[ji]))
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
	heap.Pop(&e.events) // consume the peeked (valid) entry
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
	for e.completed < len(e.specs) {
		if node, _ := e.peek(); node < 0 {
			return e.finBuf, fmt.Errorf("place: stalled with %d of %d jobs done and no runnable wave",
				e.completed, len(e.specs))
		}
		if err := e.step(); err != nil {
			return e.finBuf, err
		}
	}
	return e.finBuf, nil
}

// Job snapshots job ji's current outcome: execution-derived step counts and
// the migration path rendered so far. Valid any time after placement.
func (e *Engine) Job(ji int) PlacedJob {
	p := e.placed[ji]
	p.StepsDone = e.done[ji]
	p.Path = e.renderPath(ji)
	return p
}

// Finish seals the run and builds the Result: per-job outcomes in admission
// order plus per-node usage and the aggregate metrics. Call it once, after
// every admitted job has completed (a caller that stalls earlier should
// surface its own error — Finish reports whatever retired).
func (e *Engine) Finish() *Result {
	for ji := range e.placed {
		e.placed[ji].StepsDone = e.done[ji]
		e.placed[ji].Path = e.renderPath(ji)
	}
	out := &Result{
		Policy: e.policy, Arbiter: e.arb.Name(), Nodes: len(e.nodes),
		Fleet: fleetDescription(e.rts), Jobs: e.placed,
		Preempt: preempt.SpecName(e.preemptOn, e.triggers), TriggerFirings: e.firings,
	}
	for i, ns := range e.nodes {
		out.NodeStats = append(out.NodeStats, NodeStats{
			Node: i, Kind: ns.rt.Kind(), Hardware: ns.rt.Hardware(),
			Jobs: ns.jobs, Waves: ns.waves, BusyNs: ns.busyNs,
		})
	}
	out.finalize()
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

// push re-indexes node i in the event heap (stale entries are
// version-skipped on peek).
func (e *Engine) push(i int) {
	ns := e.nodes[i]
	ns.version++
	if next := ns.nextEventNs(); !math.IsInf(next, 1) {
		heap.Push(&e.events, waveEntry{startNs: next, node: i, version: ns.version})
	}
}

// peek returns the earliest valid node event on (time, node index),
// popping stale entries along the way, or (-1, +Inf) when none is pending.
func (e *Engine) peek() (int, float64) {
	for len(e.events) > 0 {
		top := e.events[0]
		if e.nodes[top.node].version == top.version {
			return top.node, top.startNs
		}
		heap.Pop(&e.events)
	}
	return -1, math.Inf(1)
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
// priced without a simulation. Both are zero when the memo is disabled
// (Options.NoWaveMemo).
func (e *Engine) WaveMemoStats() (hits, misses int) {
	for _, rt := range e.uniqueRts {
		if ms, ok := rt.(waveMemoStats); ok {
			h, m := ms.WaveMemoStats()
			hits += h
			misses += m
		}
	}
	return hits, misses
}

// pathSeg renders one node hop for a job's migration path.
func (e *Engine) pathSeg(n int) string {
	return fmt.Sprintf("n%0*d/%s", e.idxW, n, e.nodes[n].rt.Kind())
}

// renderPath renders job ji's migration path, "" for a job that never
// migrated.
func (e *Engine) renderPath(ji int) string {
	hops := e.path[ji]
	if len(hops) < 2 {
		return ""
	}
	segs := make([]string, len(hops))
	for i, n := range hops {
		segs[i] = e.pathSeg(n)
	}
	return strings.Join(segs, " -> ")
}

// remainingNs prices job ji's unfinished steps on the node it is currently
// assigned to, from the per-job step-work cache place and checkpointWave
// maintain — no runtime cache lookup on the hot path. Inference requests
// price at their forward-only serving graph (their work key), not the
// model's training step.
func (e *Engine) remainingNs(ji int) float64 {
	return float64(e.steps[ji]-e.done[ji]) * e.stepWork[ji]
}

// jobWorkPerRuntime fills the engine's per-pick scratch with job ji's
// predicted total solo work per distinct runtime (the work every node
// sharing that runtime would price it at), resolving each runtime's work
// cache exactly once.
func (e *Engine) jobWorkPerRuntime(ji int) []float64 {
	model := e.workKeys[ji]
	steps := float64(e.steps[ji])
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
	sp := e.specs[ji]
	if n < 0 || n >= len(e.nodes) {
		return fmt.Errorf("place: policy %q placed job %s on node %d of a %d-node cluster",
			e.policy, sp.Name, n, len(e.nodes))
	}
	// An inference request stages its serving graph's payload — next to no
	// parameters, so effectively just the interconnect latency — not the
	// training model's optimizer state.
	mi := e.info(e.workKeys[ji])
	ns := e.nodes[n]
	e.placed[ji] = PlacedJob{
		Name: sp.Name, Model: sp.Model, Node: n, Kind: ns.rt.Kind(),
		ArrivalNs: at, TransferNs: mi.xferNs, ReadyNs: at + mi.xferNs,
		DeadlineNs: sp.DeadlineNs, Steps: e.steps[ji],
		Class: sp.EffectiveClass(), SLONs: sp.SLONs,
	}
	e.readyNs[ji] = at + mi.xferNs
	e.stepWork[ji] = ns.rt.SoloWorkNs(e.workKeys[ji])
	work := e.remainingNs(ji)
	ns.queue = append(ns.queue, ji)
	ns.queuedWorkNs += work
	e.queueDelta(1, work)
	if e.readyNs[ji] < ns.minReadyNs {
		ns.minReadyNs = e.readyNs[ji]
	}
	if e.tr != nil {
		e.tr.AsyncInstant(obsPidJobs, int64(ji), "place", "job", at,
			obs.A("node", n), obs.A("kind", ns.rt.Kind()))
	}
	e.push(n)
	e.fireTriggers(ji, n, at)
	return nil
}

// fireTriggers evaluates every armed trigger against the arrival and marks
// the waves they cut. A wave is cut at most once; firings count the newly
// marked cuts.
func (e *Engine) fireTriggers(ji, node int, at float64) {
	if !e.preemptOn || len(e.triggers) == 0 {
		return
	}
	sp := e.specs[ji]
	arr := preempt.Arrival{
		Name: sp.Name, Model: sp.Model, Priority: sp.Priority,
		DeadlineNs: sp.DeadlineNs, Node: node,
		WorkNs:  e.remainingNs(ji),
		ReadyNs: e.readyNs[ji],
	}
	if sp.Inference() && sp.SLONs > 0 {
		arr.SLODeadlineNs = at + sp.SLONs
	}
	snap := e.snapshot()
	for _, tr := range e.triggers {
		for _, idx := range tr.Fire(arr, at, snap) {
			if idx < 0 || idx >= len(e.nodes) {
				continue
			}
			if w := e.nodes[idx].wave; w != nil && !w.cut {
				w.cut = true
				// The wave now ends at the current round's boundary:
				// collapse the drain horizon so later arrivals, triggers
				// and migrations price the node as freeing there.
				w.drainNs = w.roundEndNs
				e.firings++
				if e.eo != nil {
					e.eo.firings.With(tr.Name()).Inc()
				}
				if e.tr != nil {
					e.tr.Instant(obsPidNodes, idx, tr.Name(), "trigger", at,
						obs.A("arrival", sp.Name), obs.A("wave", w.ord))
				}
			}
		}
	}
}

// snapshot builds the triggers' read-only fleet view into engine-owned
// scratch — triggers inspect it inside Fire and never retain it, so the
// backing arrays (including each node's Resident list) are reused across
// arrivals.
func (e *Engine) snapshot() []preempt.NodeSnapshot {
	if cap(e.snapBuf) < len(e.nodes) {
		e.snapBuf = make([]preempt.NodeSnapshot, len(e.nodes))
	}
	out := e.snapBuf[:len(e.nodes)]
	for i, ns := range e.nodes {
		s := preempt.NodeSnapshot{
			Index: i, Kind: ns.rt.Kind(),
			Queued: len(ns.queue), QueuedWorkNs: ns.queuedWorkNs,
			Resident: out[i].Resident[:0],
		}
		if w := ns.wave; w != nil {
			s.InWave = true
			s.RoundEndNs = w.roundEndNs
			s.DrainNs = w.drainNs
			for _, ji := range w.active {
				sp := e.specs[ji]
				s.Resident = append(s.Resident, preempt.ResidentJob{
					Name: sp.Name, Priority: sp.Priority, DeadlineNs: sp.DeadlineNs,
					StepsDone: e.done[ji], Steps: e.steps[ji],
					RemainingNs: e.remainingNs(ji),
				})
			}
		}
		out[i] = s
	}
	return out
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
// selectWave reads node and job state but commits nothing — admitWave owns
// the queue compaction.
func (e *Engine) selectWave(n int, startNs float64) ([]int, map[int][]int) {
	ns := e.nodes[n]
	capacity := ns.rt.Capacity()
	memCap := ns.rt.MemCapacityBytes()
	cands := e.candBuf[:0]
	for _, ji := range ns.queue {
		if e.readyNs[ji] <= startNs {
			cands = append(cands, ji)
		}
	}
	e.candBuf = cands
	trainStart := 0
	if e.anyInference {
		// Latency-class first: inference requests ahead of training,
		// ordered by SLO deadline (requests without one last); ties and
		// the training suffix keep placement order (stable).
		sort.SliceStable(cands, func(a, b int) bool {
			sa, sb := e.specs[cands[a]], e.specs[cands[b]]
			ia, ib := sa.Inference(), sb.Inference()
			if ia != ib {
				return ia
			}
			if !ia {
				return false
			}
			da, db := math.Inf(1), math.Inf(1)
			if sa.SLONs > 0 {
				da = sa.ArrivalNs + sa.SLONs
			}
			if sb.SLONs > 0 {
				db = sb.ArrivalNs + sb.SLONs
			}
			return da < db
		})
		for trainStart < len(cands) && e.specs[cands[trainStart]].Inference() {
			trainStart++
		}
	}
	if ns.rt.Kind() == KindGPU {
		// Highest priority first, then shortest remaining work — a
		// resumed checkpoint is priced at its unfinished steps, not its
		// per-step time, and a preemption's beneficiary is never crowded
		// out of the relaunch by the very jobs it displaced. Equal keys
		// keep placement order (stable).
		tc := cands[trainStart:]
		sort.SliceStable(tc, func(a, b int) bool {
			pa, pb := e.specs[tc[a]].Priority, e.specs[tc[b]].Priority
			if pa != pb {
				return pa > pb
			}
			return e.remainingNs(tc[a]) < e.remainingNs(tc[b])
		})
	}
	// admit escapes into waveState.active, so it alone is freshly
	// allocated; the membership set is reused scratch.
	admit := make([]int, 0, len(cands))
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
		sp := e.specs[ji]
		var group []int
		if sp.Inference() {
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
				if fsp := e.specs[fj]; !fsp.Inference() || fsp.Model != sp.Model {
					continue
				}
				group = append(group, fj)
			}
		}
		if memCap > 0 {
			key := e.workKeys[ji]
			if len(group) > 0 {
				key = InferKey(sp.Model, 1+len(group))
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
		ns.queuedWorkNs += e.remainingNs(ji)
		if e.readyNs[ji] < ns.minReadyNs {
			ns.minReadyNs = e.readyNs[ji]
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
	w := &waveState{ord: ns.waves, active: admit, batch: batch}
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
		if e.countedOn[ji] != n {
			e.countedOn[ji] = n
			ns.jobs++
		}
		p := &e.placed[ji]
		p.Wave = w.ord
		p.Batched = batched
		if !e.started[ji] {
			e.started[ji] = true
			p.StartNs = startNs
			p.QueueNs = startNs - p.ArrivalNs
		}
		if e.checkpointNs[ji] >= 0 {
			p.DisruptionNs += startNs - e.checkpointNs[ji]
			e.checkpointNs[ji] = -1
			if e.tr != nil && e.flowID[ji] != 0 {
				// Bind the migration arrow started at the preemption to
				// this relaunch, and mark the resume on the job's span.
				e.tr.FlowEnd(obsPidNodes, n, e.flowID[ji], "migrate", "preempt", startNs)
				e.tr.AsyncInstant(obsPidJobs, int64(ji), "resume", "job", startNs,
					obs.A("node", n))
				e.flowID[ji] = 0
			}
		}
	}
	for _, ji := range admit {
		size := 0
		if e.specs[ji].Inference() {
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
// job — through the node's runtime and schedules the round-end event. The
// WaveJob slice is engine-owned scratch: runtimes read it only for the
// duration of RunWave.
func (e *Engine) runRound(n int, startNs float64) error {
	ns := e.nodes[n]
	w := ns.wave
	jobs := e.waveJobBuf[:0]
	for _, ji := range w.active {
		sp := e.specs[ji]
		wj := WaveJob{Name: sp.Name, Model: sp.Model, Priority: sp.Priority, Weight: sp.Weight}
		if sp.Inference() {
			// An inference slot runs one batch-sized forward step: its
			// work key carries the dynamic batch size, so every cache
			// (runtime work, wave memo) prices it distinctly.
			wj.Model = InferKey(sp.Model, 1+len(w.batch[ji]))
			wj.Class = ClassInference
		}
		jobs = append(jobs, wj)
	}
	e.waveJobBuf = jobs
	res, err := ns.rt.RunWave(jobs)
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
		tails = append(tails, drainTail{rem: e.steps[ji] - e.done[ji] - 1, span: w.res.Jobs[k].MakespanNs})
	}
	e.tailBuf = tails
	sort.Slice(tails, func(a, b int) bool { return tails[a].rem > tails[b].rem })
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
	var remain []int
	for k, ji := range w.active {
		jr := w.res.Jobs[k]
		e.done[ji]++
		p := &e.placed[ji]
		p.SoloNs += jr.SoloNs
		if e.done[ji] >= e.steps[ji] {
			// The job's last step: it leaves the wave at its own step's
			// finish inside the round, not the round's end.
			p.CoRunNs += jr.MakespanNs
			p.FinishNs = w.roundStartNs + jr.MakespanNs
			if p.SoloNs > 0 {
				p.CoRunSlowdown = p.CoRunNs / p.SoloNs
				p.Slowdown = p.JCTNs() / p.SoloNs
			}
			p.DeadlineMet = p.DeadlineNs > 0 && p.FinishNs <= p.DeadlineNs
			p.SLOMet = p.SLONs > 0 && p.FinishNs <= p.ArrivalNs+p.SLONs
			e.completed++
			e.finBuf = append(e.finBuf, ji)
			if e.eo != nil || e.tr != nil {
				e.obsComplete(ji, p)
			}
			// A dynamic batch's followers rode this slot's forward step:
			// they finish with their leader, sharing its wave outcome.
			for _, fj := range w.batch[ji] {
				e.done[fj]++
				fp := &e.placed[fj]
				fp.SoloNs += jr.SoloNs
				fp.CoRunNs += jr.MakespanNs
				fp.FinishNs = w.roundStartNs + jr.MakespanNs
				if fp.SoloNs > 0 {
					fp.CoRunSlowdown = fp.CoRunNs / fp.SoloNs
					fp.Slowdown = fp.JCTNs() / fp.SoloNs
				}
				fp.DeadlineMet = fp.DeadlineNs > 0 && fp.FinishNs <= fp.DeadlineNs
				fp.SLOMet = fp.SLONs > 0 && fp.FinishNs <= fp.ArrivalNs+fp.SLONs
				e.completed++
				e.finBuf = append(e.finBuf, fj)
				if e.eo != nil || e.tr != nil {
					e.obsComplete(fj, fp)
				}
			}
		} else {
			// Lockstep: the job waits out the round before its next step.
			p.CoRunNs += w.res.TotalNs
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

// checkpointWave captures every unfinished job of a cut wave at the step
// boundary t and re-places each through the migrator: the job restarts on
// the node where its remaining steps are predicted to finish soonest,
// paying the interconnect for checkpoint state plus re-staging when that
// node is not the one it was preempted from.
func (e *Engine) checkpointWave(from int, remain []int, t float64) {
	for _, ji := range remain {
		sp := e.specs[ji]
		mi := e.info(sp.Model)
		cp := preempt.Checkpoint{
			Job: ji, Name: sp.Name, Model: sp.Model, Node: from,
			StepsDone: e.done[ji], Steps: e.steps[ji],
			StateBytes: mi.paramBytes, TakenNs: t,
		}
		targets := make([]preempt.Target, len(e.nodes))
		for i, ns := range e.nodes {
			xfer := 0.0
			if i != from {
				xfer = e.ic.TransferNs(cp.StateBytes) + mi.xferNs
			}
			targets[i] = preempt.Target{
				Index: i, Kind: ns.rt.Kind(), Capacity: ns.rt.Capacity(),
				FreeNs: ns.viewFreeNs(), Resident: ns.residentCount(),
				Queued: len(ns.queue), QueuedWorkNs: ns.queuedWorkNs,
				WorkNs: float64(cp.StepsLeft()) * ns.rt.SoloWorkNs(sp.Model),
				Alpha:  ns.rt.WaveAlpha(), TransferNs: xfer,
			}
		}
		tgt := e.migrator.Pick(t, targets)
		p := &e.placed[ji]
		p.Preemptions++
		if tgt != from {
			p.Migrations++
			if e.path[ji] == nil {
				e.path[ji] = []int{from}
			}
			e.path[ji] = append(e.path[ji], tgt)
		}
		if e.eo != nil {
			e.eo.preemptions.Inc()
			if tgt != from {
				e.eo.migrations.Inc()
			}
		}
		if e.tr != nil {
			// One flow arrow per preemption: started here on the node the
			// job left, bound at its relaunch (launchWave ends it).
			id := e.tr.NextID()
			e.flowID[ji] = id
			e.tr.AsyncInstant(obsPidJobs, int64(ji), "preempt", "job", t,
				obs.A("from", from), obs.A("to", tgt),
				obs.A("steps_done", e.done[ji]))
			e.tr.FlowStart(obsPidNodes, from, id, "migrate", "preempt", t)
		}
		tn := e.nodes[tgt]
		p.Node = tgt
		p.Kind = tn.rt.Kind()
		e.stepWork[ji] = tn.rt.SoloWorkNs(sp.Model)
		e.readyNs[ji] = t + targets[tgt].TransferNs
		e.checkpointNs[ji] = t
		tn.queue = append(tn.queue, ji)
		tn.queuedWorkNs += targets[tgt].WorkNs
		e.queueDelta(1, targets[tgt].WorkNs)
		if e.readyNs[ji] < tn.minReadyNs {
			tn.minReadyNs = e.readyNs[ji]
		}
		e.push(tgt)
	}
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
// one runtime — its per-model work cache and its wave memo — across nodes
// with the same hardware descriptor.
func buildRuntimes(descs []Node, arb multijob.Arbiter, cfg core.Config, noMemo bool) []NodeRuntime {
	cpus := make(map[*hw.Machine]*cpuRuntime)
	gpus := make(map[*gpu.Device]*gpuRuntime)
	rts := make([]NodeRuntime, len(descs))
	for i, d := range descs {
		if d.GPU != nil {
			rt, ok := gpus[d.GPU]
			if !ok {
				rt = &gpuRuntime{d: d.GPU, hardware: d.GPU.String()}
				if !noMemo {
					rt.memo = &waveMemo{}
				}
				gpus[d.GPU] = rt
			}
			rts[i] = rt
			continue
		}
		rt, ok := cpus[d.CPU]
		if !ok {
			rt = &cpuRuntime{m: d.CPU, hardware: d.CPU.String(), arb: arb, cfg: cfg}
			if !noMemo {
				rt.memo = &waveMemo{}
			}
			cpus[d.CPU] = rt
		}
		rts[i] = rt
	}
	return rts
}
