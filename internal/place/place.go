// Package place is the cluster-scale job placement engine: it admits a
// workload of training jobs — each with an arrival time, a model, a
// priority and an optional deadline — onto a heterogeneous cluster of
// per-node hardware descriptors (manycore hw.Machine nodes and gpu.Device
// nodes, freely mixed) connected by an Interconnect, and reports
// per-job completion time, queueing delay and slowdown versus running
// alone on the hardware it landed on, plus cluster-wide makespan,
// utilization and fairness.
//
// The paper's §V argues (as unevaluated future work) that its runtime
// scales across nodes; the multi-tenant DNN scheduling literature (Yu et
// al., 2021; Gilman & Walls, 2021) treats a *stream* of jobs over *many*
// nodes as the real deployment shape. This package composes four existing
// subsystems into that scenario:
//
//   - a pluggable placement Policy (binpack, spread, or model-aware over
//     per-hardware work predictions) picks a node for every arriving job;
//   - each node answers through its NodeRuntime: a CPU node runs its
//     resident job set through the multijob engine — per-job runtime
//     schedulers under a cross-job arbiter, contention priced over the
//     union of in-flight operations — while a GPU node co-runs one job
//     per stream through the gpu occupancy/stream model;
//   - the Interconnect prices the parameter transfer that stages a
//     job on its node before it may start;
//   - the whole simulation advances on one virtual cluster clock.
//
// Execution model: nodes gang-schedule in waves. A node that becomes free
// gathers every staged job in its queue up to its hardware's wave capacity
// (one job per physical core on a CPU node, one per stream on a GPU node)
// and co-runs them to completion through its NodeRuntime; jobs arriving
// mid-wave wait for the next wave. Cluster events — job arrivals and wave
// completions — are processed in virtual time order with deterministic
// tie-breaking (arrivals first, then lower node index; the next wave start
// is read from a min-heap over nodes, not a per-event scan), so identical
// inputs always produce byte-identical reports.
package place

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"opsched/internal/gpu"
	"opsched/internal/graph"
	"opsched/internal/hw"
	"opsched/internal/multijob"
	"opsched/internal/nn"
	"opsched/internal/obs"
	"opsched/internal/stats"
)

// JobSpec is one job in the workload stream entering the cluster.
type JobSpec struct {
	// Name labels the job in results; empty means "<model>#<index>".
	Name string
	// Model is the workload to train — any spelling nn.Resolve accepts.
	Model string
	// ArrivalNs is the job's submission time on the cluster clock.
	ArrivalNs float64
	// Priority is the job's strict-priority rank inside a co-run wave
	// (higher outranks lower under the priority arbiter).
	Priority int
	// Weight is the job's fair-share weight inside a wave; 0 means 1, and
	// it may not exceed multijob.MaxWeight.
	Weight float64
	// DeadlineNs is an absolute completion deadline on the cluster clock;
	// 0 means none. Deadlines are reported, not enforced.
	DeadlineNs float64
	// Steps is the number of training steps the job runs; <= 0 means 1.
	// Step boundaries are where the preemption subsystem may cut a running
	// wave: a multi-step job can be checkpointed between steps and resume
	// — possibly on another node — with no completed work lost.
	Steps int
	// Class is the job's workload class: ClassTraining (also the empty
	// string) runs a multi-step training graph to completion;
	// ClassInference is one serving request — a single forward-only step
	// (nn.BuildInference) that the engine treats as latency-class: it jumps
	// the wave-admission queue, folds into a dynamic batch with same-model
	// pending requests, and may preempt training waves through the
	// slo-at-risk trigger instead of queueing behind them.
	Class string
	// SLONs is an inference request's per-request latency objective: the
	// request meets its SLO when it finishes within SLONs of its arrival.
	// 0 means none; only inference jobs may carry one. SLOs are reported
	// (and drive the slo-at-risk trigger), not enforced.
	SLONs float64
}

// Workload classes a JobSpec may carry ("" is equivalent to ClassTraining).
const (
	ClassTraining  = "training"
	ClassInference = "inference"
)

// Classes lists the accepted JobSpec.Class spellings.
func Classes() []string { return []string{ClassTraining, ClassInference} }

// EffectiveClass is the job's class after defaulting the empty string.
func (j JobSpec) EffectiveClass() string {
	if j.Class == "" {
		return ClassTraining
	}
	return j.Class
}

// Inference reports whether the job is a serving request.
func (j JobSpec) Inference() bool { return j.Class == ClassInference }

// inferKeySep splits an inference work key "model/infer@batch": the string
// the engine prices inference work under, so every model-keyed cache — the
// per-runtime work caches, the staging-transfer cache, the wave memo keys —
// distinguishes serving graphs (and their dynamic batch sizes) from the
// training graph of the same model without learning a second key scheme.
const inferKeySep = "/infer@"

// InferKey is the work key of a batch-sized inference step of model.
func InferKey(model string, batch int) string {
	return model + inferKeySep + strconv.Itoa(batch)
}

// parseInferKey splits an inference work key back into (model, batch); ok
// is false for a plain training model key.
func parseInferKey(key string) (model string, batch int, ok bool) {
	i := strings.LastIndex(key, inferKeySep)
	if i < 0 {
		return "", 0, false
	}
	n, err := strconv.Atoi(key[i+len(inferKeySep):])
	if err != nil || n <= 0 {
		return "", 0, false
	}
	return key[:i], n, true
}

// steps is the job's effective step count.
func (j JobSpec) steps() int {
	if j.Steps <= 0 {
		return 1
	}
	return j.Steps
}

func (j JobSpec) label(i int) string {
	if j.Name != "" {
		return j.Name
	}
	return fmt.Sprintf("%s#%d", j.Model, i)
}

// MaxTimeNs caps arrival times, deadlines and pipeline ticks at 2^60 ns,
// about 36.5 years of cluster clock. Past it float64 stops resolving the shortest solo step
// the engine prices, 509,111 ns (DCGAN batch-1 inference on the default
// KNL node): the spacing of float64 values at the ceiling is 256 ns, 5.0e-4
// of that step, and it doubles with every further power of two. Far enough
// out a job's finish rounds to its arrival, and it reports a JCT and a
// slowdown of 0.
const MaxTimeNs = 1 << 60

// Check rejects specs no placement engine could admit: negative, NaN or
// too-large arrival times, unknown models, deadlines that precede the
// job's arrival, negative step counts, and weights that are negative,
// non-finite or above multijob.MaxWeight. The index i labels the job in
// errors (its position in a workload slice, or its admission sequence in a
// stream).
func (j JobSpec) Check(i int) error {
	if math.IsNaN(j.ArrivalNs) || math.IsInf(j.ArrivalNs, 0) {
		return fmt.Errorf("place: job %d (%s) has non-finite arrival time %v", i, j.label(i), j.ArrivalNs)
	}
	if j.ArrivalNs < 0 {
		return fmt.Errorf("place: job %d (%s) has negative arrival time %v", i, j.label(i), j.ArrivalNs)
	}
	if j.ArrivalNs > MaxTimeNs {
		return fmt.Errorf("place: job %d (%s) has arrival time %v past the %v ns ceiling",
			i, j.label(i), j.ArrivalNs, float64(MaxTimeNs))
	}
	if _, err := nn.Resolve(j.Model); err != nil {
		return fmt.Errorf("place: job %d (%s): %w", i, j.label(i), err)
	}
	if math.IsNaN(j.DeadlineNs) || math.IsInf(j.DeadlineNs, 0) {
		return fmt.Errorf("place: job %d (%s) has non-finite deadline %v", i, j.label(i), j.DeadlineNs)
	}
	if j.DeadlineNs < 0 {
		return fmt.Errorf("place: job %d (%s) has negative deadline %v", i, j.label(i), j.DeadlineNs)
	}
	if j.DeadlineNs > MaxTimeNs {
		return fmt.Errorf("place: job %d (%s) has deadline %v past the %v ns ceiling",
			i, j.label(i), j.DeadlineNs, float64(MaxTimeNs))
	}
	if j.DeadlineNs > 0 && j.DeadlineNs < j.ArrivalNs {
		return fmt.Errorf("place: job %d (%s) has deadline %v before arrival %v",
			i, j.label(i), j.DeadlineNs, j.ArrivalNs)
	}
	if j.Steps < 0 {
		return fmt.Errorf("place: job %d (%s) has negative step count %d", i, j.label(i), j.Steps)
	}
	if math.IsNaN(j.Weight) || math.IsInf(j.Weight, 0) {
		return fmt.Errorf("place: job %d (%s) has non-finite weight %v", i, j.label(i), j.Weight)
	}
	if j.Weight < 0 {
		// Zero means "default 1" everywhere; only genuinely negative
		// weights are nonsense.
		return fmt.Errorf("place: job %d (%s) has negative weight %v", i, j.label(i), j.Weight)
	}
	if j.Weight > multijob.MaxWeight {
		return fmt.Errorf("place: job %d (%s) has weight %v past the %v ceiling",
			i, j.label(i), j.Weight, float64(multijob.MaxWeight))
	}
	switch j.Class {
	case "", ClassTraining, ClassInference:
	default:
		return fmt.Errorf("place: job %d (%s) has unknown class %q (have %v)", i, j.label(i), j.Class, Classes())
	}
	if math.IsNaN(j.SLONs) || math.IsInf(j.SLONs, 0) {
		return fmt.Errorf("place: job %d (%s) has non-finite SLO %v", i, j.label(i), j.SLONs)
	}
	if j.SLONs < 0 {
		return fmt.Errorf("place: job %d (%s) has negative SLO %v", i, j.label(i), j.SLONs)
	}
	if j.SLONs > 0 && !j.Inference() {
		return fmt.Errorf("place: job %d (%s) is %s-class but carries a per-request SLO; use DeadlineNs",
			i, j.label(i), j.EffectiveClass())
	}
	if j.Inference() && j.Steps > 1 {
		return fmt.Errorf("place: job %d (%s) is an inference request but has %d steps; a request is one forward step",
			i, j.label(i), j.Steps)
	}
	return nil
}

// Workload is a stream of jobs submitted to the cluster.
type Workload []JobSpec

// Validate rejects workloads no placement engine could admit: empty
// streams, plus every per-spec rejection of JobSpec.Check.
func (w Workload) Validate() error {
	if len(w) == 0 {
		return fmt.Errorf("place: empty workload")
	}
	for i, j := range w {
		if err := j.Check(i); err != nil {
			return err
		}
	}
	return nil
}

// Canonical validates the workload and returns a copy with every spec in
// the engine's canonical form: resolved model spellings and default names
// filled from the job's input index — the normalization the batch wrapper
// applies before admission, and a replay of the same slice through the
// streaming pipeline must apply too, so their default job labels agree.
func (w Workload) Canonical() (Workload, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	specs := make(Workload, len(w))
	for i, j := range w {
		j.Model, _ = nn.Resolve(j.Model) // Validate already vetted it
		j.Name = j.label(i)
		specs[i] = j
	}
	return specs, nil
}

// Merge interleaves two workloads into one arrival-ordered stream — how a
// mixed-tenant run joins a training workload with a SyntheticInference
// request stream. The merge is stable: jobs arriving at the same instant
// keep their order, with the receiver's first. Both inputs must already be
// arrival-sorted (every generator's output is); neither is modified.
func (w Workload) Merge(other Workload) Workload {
	out := make(Workload, 0, len(w)+len(other))
	i, j := 0, 0
	for i < len(w) && j < len(other) {
		if other[j].ArrivalNs < w[i].ArrivalNs {
			out = append(out, other[j])
			j++
		} else {
			out = append(out, w[i])
			i++
		}
	}
	out = append(out, w[i:]...)
	out = append(out, other[j:]...)
	return out
}

// Cluster describes the hardware the workload is placed onto: a fleet of
// per-node hardware descriptors — CPU machines and GPU devices, freely
// mixed — joined by an interconnect. Either give the fleet explicitly
// through NodeList, or count it: Nodes CPU nodes (all sharing Machine)
// followed by GPUs GPU nodes (all sharing GPU).
type Cluster struct {
	// Nodes is the number of CPU nodes when NodeList is empty.
	Nodes int
	// Machine is the CPU-node hardware model; nil means hw.NewKNL().
	Machine *hw.Machine
	// GPUs is the number of GPU nodes appended after the CPU nodes when
	// NodeList is empty.
	GPUs int
	// GPU is the GPU-node device model; nil means gpu.NewP100().
	GPU *gpu.Device
	// NodeList is the explicit heterogeneous fleet, in node-index order;
	// when non-empty it overrides Nodes/Machine/GPUs/GPU.
	NodeList []Node
	// Interconnect joins the nodes; nil means NewAries().
	Interconnect *Interconnect
}

// Interconnect models the fabric between nodes (e.g. the Aries network of
// Cori, where the paper's KNL machines live).
type Interconnect struct {
	// BWBytesNs is the per-node injection bandwidth in bytes/ns.
	BWBytesNs float64
	// LatencyNs is the per-message latency.
	LatencyNs float64
}

// NewAries returns a Cray-Aries-like interconnect (~10 GB/s per node,
// ~1.5 µs latency).
func NewAries() *Interconnect {
	return &Interconnect{BWBytesNs: 10, LatencyNs: 1500}
}

// TransferNs estimates a one-way point-to-point transfer of payload bytes
// between two nodes — the cost of staging a job's parameters on the node
// it is placed on. Non-positive payloads still pay the message latency.
func (ic *Interconnect) TransferNs(payloadBytes float64) float64 {
	if payloadBytes <= 0 {
		return ic.LatencyNs
	}
	return ic.LatencyNs + payloadBytes/ic.BWBytesNs
}

// paramBytes sums the parameter-tensor sizes receiving optimizer updates:
// the payload shipped to a node before the job can start there.
func paramBytes(g *graph.Graph) float64 {
	total := 0.0
	for _, node := range g.Nodes() {
		switch node.Op.Kind {
		case "ApplyAdam", "ApplyGradientDescent":
			total += node.Op.Input.Bytes()
		}
	}
	return total
}

// Validate rejects cluster descriptions with no nodes, an inconsistent
// hardware model, or a degenerate interconnect.
func (c Cluster) Validate() error {
	if len(c.NodeList) > 0 {
		for i, n := range c.NodeList {
			if err := n.Validate(); err != nil {
				return fmt.Errorf("place: node %d: %w", i, err)
			}
		}
	} else {
		if c.Nodes < 0 || c.GPUs < 0 || c.Nodes+c.GPUs < 1 {
			return fmt.Errorf("place: cluster needs at least one node, got %d CPU + %d GPU", c.Nodes, c.GPUs)
		}
		if c.Machine != nil {
			if err := c.Machine.Validate(); err != nil {
				return fmt.Errorf("place: node machine: %w", err)
			}
		}
		if c.GPU != nil {
			if err := c.GPU.Validate(); err != nil {
				return fmt.Errorf("place: node device: %w", err)
			}
		}
	}
	if ic := c.Interconnect; ic != nil {
		// Written so that NaN fails the checks too.
		if !(ic.BWBytesNs > 0) {
			return fmt.Errorf("place: interconnect bandwidth must be positive, got %v", ic.BWBytesNs)
		}
		if !(ic.LatencyNs >= 0) || math.IsInf(ic.LatencyNs, 1) {
			return fmt.Errorf("place: interconnect latency must be finite and non-negative, got %v", ic.LatencyNs)
		}
	}
	return nil
}

// nodeDescriptors expands the cluster into its per-node hardware
// descriptor slice, CPU nodes before GPU nodes in the counted form.
func (c Cluster) nodeDescriptors() []Node {
	if len(c.NodeList) > 0 {
		return c.NodeList
	}
	m := c.Machine
	if m == nil {
		m = hw.NewKNL()
	}
	d := c.GPU
	if d == nil {
		d = gpu.NewP100()
	}
	nodes := make([]Node, 0, c.Nodes+c.GPUs)
	for i := 0; i < c.Nodes; i++ {
		nodes = append(nodes, Node{CPU: m})
	}
	for i := 0; i < c.GPUs; i++ {
		nodes = append(nodes, Node{GPU: d})
	}
	return nodes
}

func (c Cluster) interconnect() *Interconnect {
	if c.Interconnect == nil {
		return NewAries()
	}
	return c.Interconnect
}

// fleetDescription renders the fleet compactly, grouping consecutive runs
// of identical hardware: "4×machine{...}" or "2×machine{...} + 2×gpu{...}".
func fleetDescription(rts []NodeRuntime) string {
	var b strings.Builder
	for i := 0; i < len(rts); {
		j := i
		for j < len(rts) && rts[j].Hardware() == rts[i].Hardware() {
			j++
		}
		if i > 0 {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "%d×%s", j-i, rts[i].Hardware())
		i = j
	}
	return b.String()
}

// Options configure a placement run.
type Options struct {
	// Policy names the placement policy (see Policies); empty means
	// "spread".
	Policy string
	// Arbiter names the cross-job policy every CPU node runs its waves
	// under, one of multijob.Arbiters; empty means "fair". GPU streams
	// share their device equally and ignore it.
	Arbiter string
	// Preempt is the preemption trigger spec (parseTriggers): ""
	// or "off" runs every wave to completion; "none" arms the preemptive
	// engine with no triggers (its output is byte-identical to "off");
	// "all" arms every built-in trigger; otherwise a "+"-separated list
	// of trigger names, e.g. "priority+deadline".
	Preempt string
	// Workers is ignored: the engine is serial.
	//
	// Deprecated: kept only so existing callers still compile; it has no
	// effect.
	Workers int
	// Obs attaches the observability layer: a metrics registry the engine
	// records its instruments into, and/or a virtual-time tracer
	// collecting job-lifecycle and wave events for Chrome trace export.
	// nil (the default) disables observability entirely — the engine then
	// pays one nil check per emission point and allocates nothing extra —
	// and an attached Observer only ever records: reports stay
	// byte-identical with observability on or off, which the determinism
	// tests enforce.
	Obs *obs.Observer
}

func (o Options) policy() string {
	if o.Policy == "" {
		return policySpread
	}
	return o.Policy
}

func (o Options) arbiter() string {
	if o.Arbiter == "" {
		return "fair"
	}
	return o.Arbiter
}

// PlacedJob is the outcome of one job in the placed workload.
type PlacedJob struct {
	// Name and Model identify the job.
	Name  string
	Model string
	// Node is the node index the job was placed on; Kind is that node's
	// hardware kind (KindCPU or KindGPU); Wave is the 0-based ordinal of
	// the co-run wave that executed it on that node.
	Node int
	Kind string
	Wave int
	// ArrivalNs is the submission time; ReadyNs adds the parameter
	// transfer that stages the job on its node.
	ArrivalNs  float64
	ReadyNs    float64
	TransferNs float64
	// StartNs/FinishNs bound the job's co-run wave execution on the
	// cluster clock.
	StartNs  float64
	FinishNs float64
	// QueueNs is the queueing delay StartNs - ArrivalNs (staging transfer
	// included).
	QueueNs float64
	// SoloNs is the job's makespan alone on one node; CoRunNs its makespan
	// inside the wave.
	SoloNs  float64
	CoRunNs float64
	// CoRunSlowdown is CoRunNs/SoloNs (contention only, >= 1); Slowdown is
	// JCTNs()/SoloNs (queueing included, >= CoRunSlowdown).
	CoRunSlowdown float64
	Slowdown      float64
	// DeadlineNs echoes the spec; DeadlineMet reports FinishNs <=
	// DeadlineNs for jobs that have one (false when DeadlineNs is 0).
	DeadlineNs  float64
	DeadlineMet bool
	// Steps echoes the job's step count; StepsDone counts the steps the
	// engine actually retired — always equal to Steps at completion, and
	// derived from execution, not the spec, so the work-conservation
	// property tests can catch an engine that loses or invents rounds.
	// Preemptions counts the times the
	// job was checkpointed out of a cut wave; Migrations the checkpoint
	// restores that landed on a different node. Path renders the node
	// sequence the job executed on ("n00/cpu -> n03/gpu"); it is empty
	// when the job never moved. DisruptionNs totals the time between each
	// checkpoint capture and the start of the wave that resumed the job —
	// transfer and re-queueing included.
	Steps        int
	StepsDone    int
	Preemptions  int
	Migrations   int
	Path         string
	DisruptionNs float64
	// Class is the job's effective workload class (ClassTraining or
	// ClassInference). SLONs echoes an inference request's latency
	// objective; SLOMet reports FinishNs <= ArrivalNs+SLONs for requests
	// that have one (false when SLONs is 0). Batched is the dynamic batch
	// size the request executed in — the number of same-model requests its
	// wave slot served together, 1 when it ran alone and 0 for training
	// jobs, which never batch.
	Class   string
	SLONs   float64
	SLOMet  bool
	Batched int
}

// JCTNs is the job completion time: finish minus arrival.
func (p PlacedJob) JCTNs() float64 { return p.FinishNs - p.ArrivalNs }

// retired reports whether the engine retired every step of the job: only
// retired jobs count in a Result's aggregates and percentiles.
func (p PlacedJob) retired() bool { return p.StepsDone == p.Steps }

// NodeStats summarizes one node's share of the run.
type NodeStats struct {
	// Node is the node index; Kind its hardware kind (KindCPU or
	// KindGPU); Hardware the full hardware description.
	Node     int
	Kind     string
	Hardware string
	// Jobs and Waves count the jobs executed and the co-run waves that
	// executed them.
	Jobs  int
	Waves int
	// BusyNs is the total wave execution time; Utilization is
	// BusyNs / cluster makespan (0 when the makespan is 0).
	BusyNs      float64
	Utilization float64
}

// Result is the outcome of placing a workload onto a cluster.
type Result struct {
	// Policy, Arbiter and Nodes name the configuration; Fleet describes
	// the per-node hardware, grouping identical nodes ("2×machine{...} +
	// 2×gpu{...}").
	Policy  string
	Arbiter string
	Nodes   int
	Fleet   string
	// MakespanNs is the last job's finish time on the cluster clock.
	MakespanNs float64
	// MeanJCTNs, MaxJCTNs and MeanQueueNs aggregate the per-job outcomes.
	MeanJCTNs   float64
	MaxJCTNs    float64
	MeanQueueNs float64
	// FairnessIndex is Jain's index over each job's solo-normalized
	// completion rate SoloNs/JCTNs: 1 when every job is slowed equally.
	FairnessIndex float64
	// DeadlinesMet / DeadlinesTotal count the jobs with deadlines that made
	// them, out of all jobs that had one.
	DeadlinesMet   int
	DeadlinesTotal int
	// Preempt echoes the trigger spec the run used ("off" when disabled).
	// TriggerFirings counts the wave cuts the triggers requested;
	// Preemptions the jobs checkpointed out of cut waves; Migrations the
	// checkpoint restores that moved nodes; DisruptionNs the summed
	// per-job disruption. All four are zero in a run-to-completion run —
	// and in a preemptive run whose triggers never fired, whose report is
	// byte-identical to it.
	Preempt        string
	TriggerFirings int
	Preemptions    int
	Migrations     int
	DisruptionNs   float64
	// Per-class aggregates, all zero in a training-only run (whose report
	// is byte-identical to a run built before the inference class existed).
	// SLOMet / SLOTotal count the inference requests that finished within
	// their objective, out of all requests that had one; SLOAttainment is
	// their ratio (0 when no request carried an SLO). GoodputPerSec is
	// SLO-met requests per wall second of makespan — the serving throughput
	// that actually arrived on time.
	TrainingJobs  int
	InferenceJobs int
	SLOMet        int
	SLOTotal      int
	SLOAttainment float64
	GoodputPerSec float64
	// Per-class JCT percentiles (nearest-rank), zero for an absent class.
	TrainP50JCTNs float64
	TrainP99JCTNs float64
	InferP50JCTNs float64
	InferP99JCTNs float64
	// Jobs holds per-job outcomes in workload (input) order.
	Jobs []PlacedJob
	// NodeStats holds per-node usage in node-index order.
	NodeStats []NodeStats
	// MetricsDump is the attached metrics registry rendered as Prometheus
	// text at seal time — empty when the run had no Options.Obs metrics.
	// It is a diagnostic attachment, deliberately excluded from Render():
	// wall-clock histograms make it run-dependent, and the rendered
	// report must stay byte-identical with observability on and off.
	MetricsDump string
}

// Tally is the one fold over completed jobs. The engine adds each job
// once, as the job retires its last step, so every sum runs in completion
// order; the sealed Result, a pipeline's live Snapshot and the engine's
// SLO gauges all read a Tally, which makes them agree bit for bit. A field
// means what the Result field of its name means, over the jobs added so
// far; the sums back the means, and TrainDeadlines counts the training
// jobs among Deadlines (training's latency objective).
type Tally struct {
	TrainingJobs, InferenceJobs int
	JCTSumNs, QueueSumNs        float64
	MaxJCTNs, MakespanNs        float64
	Deadlines, TrainDeadlines   Objective
	SLO                         Objective
	Preemptions, Migrations     int
	DisruptionNs                float64
	// rateSum, rateSumSq and rates fold the jobs' solo-normalized
	// completion rates SoloNs/JCTNs into Jain's index.
	rateSum, rateSumSq float64
	rates              int
}

// Objective counts the jobs that carried a latency objective (Total) and
// the ones that made it (Met).
type Objective struct{ Met, Total int }

func (o *Objective) add(met bool) {
	o.Total++
	if met {
		o.Met++
	}
}

// Ratio is Met/Total, 0 when no job carried the objective.
func (o Objective) Ratio() float64 {
	if o.Total == 0 {
		return 0
	}
	return float64(o.Met) / float64(o.Total)
}

// Add folds one completed job in. The engine calls it once per job, as
// the job retires; a caller that re-folds the same jobs in the same order
// from the same starting tally reaches the same bits.
func (t *Tally) Add(p *PlacedJob) {
	jct := p.JCTNs()
	t.JCTSumNs += jct
	t.QueueSumNs += p.QueueNs
	t.MaxJCTNs, t.MakespanNs = max(t.MaxJCTNs, jct), max(t.MakespanNs, p.FinishNs)
	if p.SoloNs > 0 && jct > 0 {
		rate := p.SoloNs / jct
		t.rateSum += rate
		t.rateSumSq += rate * rate
		t.rates++
	}
	if p.DeadlineNs > 0 {
		t.Deadlines.add(p.DeadlineMet)
	}
	if p.Class == ClassInference {
		t.InferenceJobs++
		if p.SLONs > 0 {
			t.SLO.add(p.SLOMet)
		}
	} else {
		t.TrainingJobs++
		if p.DeadlineNs > 0 {
			t.TrainDeadlines.add(p.DeadlineMet)
		}
	}
	t.Preemptions += p.Preemptions
	t.Migrations += p.Migrations
	t.DisruptionNs += p.DisruptionNs
}

// Completed is the number of jobs folded in.
func (t *Tally) Completed() int { return t.TrainingJobs + t.InferenceJobs }

// MeanJCTNs and MeanQueueNs are the mean completion time and queueing
// delay; both sums are 0 before any completion, and so are the means.
func (t *Tally) MeanJCTNs() float64   { return t.JCTSumNs / float64(max(t.Completed(), 1)) }
func (t *Tally) MeanQueueNs() float64 { return t.QueueSumNs / float64(max(t.Completed(), 1)) }

// finalize seals the result: the aggregate fields come from the tally t of
// its completed jobs, the per-class JCT percentiles from sorting the
// retired Jobs, and each node's utilization from its busy time over the
// makespan.
func (r *Result) finalize(t *Tally) {
	r.MakespanNs, r.MaxJCTNs = t.MakespanNs, t.MaxJCTNs
	r.MeanJCTNs, r.MeanQueueNs = t.MeanJCTNs(), t.MeanQueueNs()
	r.FairnessIndex = stats.JainIndex(t.rateSum, t.rateSumSq, t.rates)
	r.DeadlinesMet, r.DeadlinesTotal = t.Deadlines.Met, t.Deadlines.Total
	r.Preemptions, r.Migrations, r.DisruptionNs = t.Preemptions, t.Migrations, t.DisruptionNs
	r.TrainingJobs, r.InferenceJobs = t.TrainingJobs, t.InferenceJobs
	r.SLOMet, r.SLOTotal, r.SLOAttainment = t.SLO.Met, t.SLO.Total, t.SLO.Ratio()
	if r.MakespanNs > 0 {
		r.GoodputPerSec = float64(r.SLOMet) / (r.MakespanNs / 1e9)
		for i := range r.NodeStats {
			r.NodeStats[i].Utilization = r.NodeStats[i].BusyNs / r.MakespanNs
		}
	}
	trainJCT := make([]float64, 0, t.TrainingJobs)
	var inferJCT []float64
	for k := range r.Jobs {
		p := &r.Jobs[k]
		if !p.retired() {
			continue
		}
		if p.Class == ClassInference {
			inferJCT = append(inferJCT, p.JCTNs())
		} else {
			trainJCT = append(trainJCT, p.JCTNs())
		}
	}
	sort.Float64s(trainJCT)
	sort.Float64s(inferJCT)
	r.TrainP50JCTNs = stats.NearestRank(trainJCT, 0.50)
	r.TrainP99JCTNs = stats.NearestRank(trainJCT, 0.99)
	r.InferP50JCTNs = stats.NearestRank(inferJCT, 0.50)
	r.InferP99JCTNs = stats.NearestRank(inferJCT, 0.99)
}

// QueuePercentileNs returns the p-quantile (p in [0,1], nearest-rank) of
// the retired jobs' queueing delays — the tail-latency metric the
// preemption experiments report alongside deadline-hit rate.
func (r *Result) QueuePercentileNs(p float64) float64 {
	qs := make([]float64, 0, len(r.Jobs))
	for _, j := range r.Jobs {
		if j.retired() {
			qs = append(qs, j.QueueNs)
		}
	}
	sort.Float64s(qs)
	return stats.NearestRank(qs, p)
}

// Render formats the result as a deterministic report table: byte-identical
// output for identical inputs, whatever parallelism produced the Result.
// Column widths adapt to the content — node indices stay aligned past two
// digits — and every job row and node line carries the node's hardware
// kind. Preemption columns (per-job checkpoint count and migration path)
// and the preemption summary clause appear only when the run actually
// preempted something, so a run whose triggers never fire renders exactly
// like a run-to-completion one.
func (r *Result) Render() string {
	nameW, modelW, waveW, pathW := len("job"), len("model"), len("wave"), len("path")
	for _, p := range r.Jobs {
		nameW, modelW = max(nameW, len(p.Name)), max(modelW, len(p.Model))
		waveW, pathW = max(waveW, len(strconv.Itoa(p.Wave))), max(pathW, len(p.Path))
	}
	nodeW := max(len("node"), len(strconv.Itoa(r.Nodes-1)))
	preempted := r.Preemptions > 0
	serving := r.InferenceJobs > 0
	var b strings.Builder
	fmt.Fprintf(&b, "placement: %d jobs over %d nodes, policy=%s, arbiter=%s, fleet=%s\n",
		len(r.Jobs), r.Nodes, r.Policy, r.Arbiter, r.Fleet)
	fmt.Fprintf(&b, "  %-*s  %-*s  %*s  %-3s  %*s  %10s  %10s  %10s  %10s  %8s  %8s",
		nameW, "job", modelW, "model", nodeW, "node", "hw", waveW, "wave",
		"arrive(ms)", "queue(ms)", "corun(ms)", "jct(ms)", "slowdown", "deadline")
	if serving {
		fmt.Fprintf(&b, "  %-5s  %5s  %4s", "class", "batch", "slo")
	}
	if preempted {
		fmt.Fprintf(&b, "  %3s  %-*s", "pre", pathW, "path")
	}
	b.WriteString("\n")
	for _, p := range r.Jobs {
		deadline := outcome(p.DeadlineNs > 0, p.DeadlineMet)
		fmt.Fprintf(&b, "  %-*s  %-*s  %*d  %-3s  %*d  %10.3f  %10.3f  %10.3f  %10.3f  %7.2fx  %8s",
			nameW, p.Name, modelW, p.Model, nodeW, p.Node, p.Kind, waveW, p.Wave,
			p.ArrivalNs/1e6, p.QueueNs/1e6, p.CoRunNs/1e6, p.JCTNs()/1e6, p.Slowdown, deadline)
		if serving {
			class, batch, slo := "train", "-", "-"
			if p.Class == ClassInference {
				class = "infer"
				batch = strconv.Itoa(p.Batched)
				slo = outcome(p.SLONs > 0, p.SLOMet)
			}
			fmt.Fprintf(&b, "  %-5s  %5s  %4s", class, batch, slo)
		}
		if preempted {
			path := p.Path
			if path == "" {
				path = "-"
			}
			fmt.Fprintf(&b, "  %3d  %-*s", p.Preemptions, pathW, path)
		}
		b.WriteString("\n")
	}
	idxW := len(fmt.Sprintf("%d", r.Nodes-1))
	for _, ns := range r.NodeStats {
		fmt.Fprintf(&b, "  node %*d [%s]: %d jobs in %d waves, busy %.3f ms, util %.2f\n",
			idxW, ns.Node, ns.Kind, ns.Jobs, ns.Waves, ns.BusyNs/1e6, ns.Utilization)
	}
	fmt.Fprintf(&b, "makespan %.3f ms, mean jct %.3f ms, mean queue %.3f ms, fairness %.3f (Jain, solo-normalized)",
		r.MakespanNs/1e6, r.MeanJCTNs/1e6, r.MeanQueueNs/1e6, r.FairnessIndex)
	if r.DeadlinesTotal > 0 {
		fmt.Fprintf(&b, ", deadlines %d/%d met", r.DeadlinesMet, r.DeadlinesTotal)
	}
	if serving {
		fmt.Fprintf(&b, "\ninference: %d requests (%d training jobs), SLO %d/%d met (%.1f%% attainment), jct p50 %.3f ms p99 %.3f ms, goodput %.1f req/s",
			r.InferenceJobs, r.TrainingJobs, r.SLOMet, r.SLOTotal, 100*r.SLOAttainment,
			r.InferP50JCTNs/1e6, r.InferP99JCTNs/1e6, r.GoodputPerSec)
	}
	if preempted {
		fmt.Fprintf(&b, ", preemptions %d (%d migrated, %d trigger firings), disruption %.3f ms",
			r.Preemptions, r.Migrations, r.TriggerFirings, r.DisruptionNs/1e6)
	}
	b.WriteString("\n")
	return b.String()
}

// outcome labels a job's latency objective in the report: "-" when the
// job had none.
func outcome(had, met bool) string {
	switch {
	case !had:
		return "-"
	case met:
		return "met"
	}
	return "MISS"
}
