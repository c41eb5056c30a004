// Package opsched reproduces "Runtime Concurrency Control and Operation
// Scheduling for High Performance Neural Network Training" (Liu, Li,
// Kestor, Vetter — IPDPS 2019) as a self-contained Go library.
//
// The paper extends the TensorFlow runtime on an Intel Knights Landing
// node so that every dataflow operation's intra-op parallelism is chosen
// automatically from a hill-climbing performance model, and ready
// operations are co-run into idle cores (and onto spare hyper-threads)
// without hurting system throughput. This package is the public facade
// over the internal packages that implement the full system:
//
//   - hw: the analytic KNL machine model (68 cores, 34 tiles, MCDRAM);
//   - op/graph/nn: the operation catalog, dataflow graphs and the four
//     training workloads (ResNet-50, DCGAN, Inception-v3, LSTM);
//   - exec: the discrete-event execution engine with the TensorFlow FIFO
//     baseline and co-run contention modeling;
//   - perfmodel/regress/counters: the hill-climbing performance model and
//     the rejected regression alternative;
//   - core: the runtime itself — Strategies 1-4;
//   - gpu: the P100 study of the paper's Section VII;
//   - experiments: regenerators for every table and figure.
//
// Quick start:
//
//	model := opsched.MustBuild(opsched.ResNet50)
//	machine := opsched.NewKNL()
//	base, _ := opsched.BaselineStep(model, machine, 1, machine.Cores)
//	ours, _ := opsched.TrainStep(model, machine, opsched.AllStrategies())
//	fmt.Printf("speedup %.2fx\n", base.StepTimeNs/ours.StepTimeNs)
package opsched

import (
	"context"
	"io"

	"opsched/internal/core"
	"opsched/internal/exec"
	"opsched/internal/experiments"
	"opsched/internal/gpu"
	"opsched/internal/hw"
	"opsched/internal/multijob"
	"opsched/internal/nn"
	"opsched/internal/obs"
	"opsched/internal/perfmodel"
	"opsched/internal/pipeline"
	"opsched/internal/place"
	"opsched/internal/preempt"
	"opsched/internal/sweep"
	"opsched/internal/tracefile"
)

// Machine is the manycore hardware model (see hw.Machine).
type Machine = hw.Machine

// Model is a training workload: a per-step dataflow graph plus metadata.
type Model = nn.Model

// Config selects the runtime's active scheduling strategies.
type Config = core.Config

// Result is the outcome of executing one training step.
type Result = exec.Result

// Runtime is the concurrency-control and operation-scheduling runtime.
type Runtime = core.Runtime

// The paper's four workloads.
const (
	ResNet50    = nn.ResNet50
	DCGAN       = nn.DCGAN
	InceptionV3 = nn.InceptionV3
	LSTM        = nn.LSTM
)

// NewKNL returns the Xeon Phi 7250 machine model used throughout the paper.
func NewKNL() *Machine { return hw.NewKNL() }

// Models lists the four workloads in the paper's order.
func Models() []string { return nn.Names() }

// Build constructs the named workload at its paper batch size.
func Build(name string) (*Model, error) { return nn.Build(name) }

// MustBuild is Build that panics on an unknown name.
func MustBuild(name string) *Model { return nn.MustBuild(name) }

// Strategies12 enables concurrency control only (Figure 3a).
func Strategies12() Config { return core.Strategies12() }

// Strategies123 adds co-running (Figure 3b).
func Strategies123() Config { return core.Strategies123() }

// AllStrategies enables the full runtime (Figures 3c/3d).
func AllStrategies() Config { return core.AllStrategies() }

// NewRuntime builds a runtime for machine m (nil means NewKNL()).
func NewRuntime(m *Machine, cfg Config) *Runtime { return core.New(m, cfg) }

// TrainStep profiles the model (hill-climbing, a few simulated training
// steps) and executes one training step under the runtime.
func TrainStep(model *Model, m *Machine, cfg Config) (*Result, error) {
	rt := core.New(m, cfg)
	return rt.RunStep(model.Graph, exec.Options{Machine: m})
}

// BaselineStep executes one training step under the TensorFlow FIFO
// baseline with uniform inter-op/intra-op parallelism. The paper's
// recommended configuration is interOp=1, intraOp=68.
func BaselineStep(model *Model, m *Machine, interOp, intraOp int) (*Result, error) {
	return exec.Run(model.Graph,
		&exec.FIFO{InterOp: interOp, IntraOp: intraOp, Place: hw.Shared},
		exec.Options{Machine: m})
}

// ManualOptimize exhaustively searches uniform configurations — the
// paper's "manual optimization" baseline — returning the best setting and
// its result.
func ManualOptimize(model *Model, m *Machine) (string, *Result, error) {
	cfg, res, err := core.ManualOptimize(model.Graph, m, nil)
	if err != nil {
		return "", nil, err
	}
	return cfg.String(), res, nil
}

// Experiments lists the regenerable tables and figures in paper order.
func Experiments() []string { return experiments.Names() }

// RunExperiment regenerates the named table or figure and returns its
// rendered report.
func RunExperiment(name string, m *Machine) (string, error) {
	res, err := experiments.Run(name, m)
	if err != nil {
		return "", err
	}
	return res.Render(), nil
}

// ExperimentReport is one regenerated table/figure from a sweep: its name,
// rendered report, and the wall-clock time its worker spent on it.
type ExperimentReport = sweep.ExperimentReport

// NamedMachine pairs a hardware model with a label for sweep attribution.
type NamedMachine = sweep.NamedMachine

// RunExperiments regenerates the named experiments (nil means all, in paper
// order) across up to parallelism worker goroutines (<= 0 means GOMAXPROCS).
// Reports are byte-identical to serial runs and returned in request order
// regardless of completion order.
func RunExperiments(ctx context.Context, names []string, m *Machine, parallelism int) ([]ExperimentReport, error) {
	return sweep.Experiments(ctx, m, names, parallelism)
}

// ProfileCacheStats reports the process-wide hill-climb profile cache's
// hits and misses — repeated sweeps over the same (machine, graph) reuse
// profiles instead of re-running ProfileGraph.
func ProfileCacheStats() (hits, misses int) { return perfmodel.CacheStats() }

// CoTrainResult is the outcome of co-scheduling several training jobs on
// one machine: per-job makespan, slowdown versus running solo, and a Jain
// fairness index over solo-normalized progress.
type CoTrainResult = multijob.Result

// CoJobResult is one job's outcome inside a CoTrainResult.
type CoJobResult = multijob.JobResult

// CoJob is one workload entering a co-scheduled run (see multijob.Job).
type CoJob = multijob.Job

// Arbiters lists the cross-job scheduling policies CoTrain accepts:
// "fair" (weighted core shares, least-progressed job claims first),
// "priority" (strict priority, earlier jobs outrank later ones) and
// "srwf" (shortest predicted remaining work first).
func Arbiters() []string { return multijob.Arbiters() }

// ResolveModel maps a user-typed workload name ("resnet", "lstm", ...) to
// its canonical spelling.
func ResolveModel(name string) (string, error) { return nn.Resolve(name) }

// CoTrain co-schedules one training step of every named workload on one
// machine (nil means NewKNL) under the given arbiter policy, each job
// driven by its own runtime instance under cfg. Earlier models get higher
// strict-priority rank. Names accept the short spellings of ResolveModel.
func CoTrain(models []string, m *Machine, cfg Config, arbiter string) (*CoTrainResult, error) {
	if m == nil {
		m = hw.NewKNL()
	}
	arb, err := multijob.NewArbiter(arbiter)
	if err != nil {
		return nil, err
	}
	jobs := make([]CoJob, len(models))
	for i, name := range models {
		canonical, err := nn.Resolve(name)
		if err != nil {
			return nil, err
		}
		model, err := nn.Build(canonical)
		if err != nil {
			return nil, err
		}
		job, err := multijob.RuntimeJob(model.Name, model.Graph, m, cfg)
		if err != nil {
			return nil, err
		}
		job.Priority = len(models) - i
		jobs[i] = job
	}
	return multijob.CoTrain(jobs, arb, multijob.Options{Machine: m})
}

// RunCoJobs co-schedules caller-assembled jobs (custom graphs, schedulers,
// weights and priorities) under the named arbiter.
func RunCoJobs(jobs []CoJob, m *Machine, arbiter string) (*CoTrainResult, error) {
	arb, err := multijob.NewArbiter(arbiter)
	if err != nil {
		return nil, err
	}
	return multijob.CoTrain(jobs, arb, multijob.Options{Machine: m})
}

// JobMix is one co-scheduled workload mix in a job sweep.
type JobMix = sweep.JobMix

// JobSweepGrid is a job-mix × arbiter-policy × machine sweep specification.
type JobSweepGrid = sweep.JobGrid

// JobSweepCell is the outcome of one job-mix grid point.
type JobSweepCell = sweep.JobCell

// RunJobSweep evaluates a job-mix × arbiter × machine grid across up to
// parallelism worker goroutines, returning cells in the grid's
// deterministic enumeration order (see JobSweepGrid.Cells). Rendered
// reports are byte-identical whatever the parallelism.
func RunJobSweep(ctx context.Context, g JobSweepGrid, parallelism int) ([]JobSweepCell, error) {
	return sweep.RunJobGrid(ctx, g, parallelism)
}

// ClusterJob is one job in a workload stream entering the cluster: a model,
// an arrival time, a priority, a fair-share weight and an optional
// deadline (see place.JobSpec).
type ClusterJob = place.JobSpec

// ClusterWorkload is a stream of jobs submitted to a cluster.
type ClusterWorkload = place.Workload

// Cluster describes the hardware a workload is placed onto: a fleet of
// per-node hardware descriptors — CPU machines and GPU devices, freely
// mixed — joined by an interconnect. Either count the fleet (Nodes CPU
// nodes followed by GPUs GPU nodes) or give it explicitly via NodeList.
type Cluster = place.Cluster

// ClusterNode is one node's hardware descriptor: exactly one of CPU
// (a manycore machine) or GPU (a device) is set.
type ClusterNode = place.Node

// GPUDevice is the GPU hardware model of the paper's Section VII study
// (see gpu.Device); it doubles as a cluster node's hardware.
type GPUDevice = gpu.Device

// NewP100 returns the Tesla P100 device model used in the paper's GPU
// study — and, in cluster placement, the default GPU node hardware.
func NewP100() *GPUDevice { return gpu.NewP100() }

// HeterogeneousCluster is a convenience constructor for a mixed fleet:
// cpus KNL nodes followed by gpus P100 nodes, joined by the default
// Aries-like interconnect. Set the Cluster fields directly for custom
// hardware models.
func HeterogeneousCluster(cpus, gpus int) Cluster {
	return Cluster{Nodes: cpus, GPUs: gpus}
}

// PlaceOptions configure a cluster placement run: the placement policy,
// the per-node cross-job arbiter and the per-job runtime configuration.
type PlaceOptions = place.Options

// PlacementResult is the outcome of placing a workload onto a cluster:
// per-job completion times, queueing delays and slowdowns, plus
// cluster-wide makespan, utilization and Jain fairness.
type PlacementResult = place.Result

// PlacedJob is one job's outcome inside a PlacementResult.
type PlacedJob = place.PlacedJob

// PlacementPolicies lists the placement policies PlaceJobs accepts:
// "binpack" (consolidate onto the most-loaded node with spare capacity),
// "spread" (least-loaded node) and "model-aware" (minimize the job's
// predicted finish time, priced per node hardware — a launch-bound LSTM
// routes to a manycore node, a convolution-heavy model to a GPU).
func PlacementPolicies() []string { return place.Policies() }

// PlaceJobs admits a workload of jobs onto a cluster under the given
// options and runs it to completion on one virtual cluster clock: every
// arriving job is placed by the policy against per-node hardware views,
// CPU nodes gang-schedule their resident jobs through the multi-job
// co-scheduling engine, and GPU nodes co-run one job per stream through
// the occupancy model. Execution is fully deterministic.
func PlaceJobs(w ClusterWorkload, c Cluster, opts PlaceOptions) (*PlacementResult, error) {
	return place.PlaceJobs(w, c, opts)
}

// SyntheticWorkload builds a deterministic n-job workload from seed:
// models cycle through the given list (nil means all four paper
// workloads), arrivals follow a seeded uniform stream with the given mean
// gap (<= 0 means 2 ms), and every fourth job carries a deadline.
func SyntheticWorkload(n int, seed uint64, models []string, meanGapNs float64) (ClusterWorkload, error) {
	return place.Synthetic(n, seed, models, meanGapNs)
}

// SyntheticStepsWorkload is SyntheticWorkload with multi-step jobs: step
// counts cycle deterministically through 1..maxSteps without perturbing
// the arrival stream, and deadlines stretch with their job's step count.
// maxSteps <= 1 is SyntheticWorkload verbatim. Multi-step jobs are what
// give the preemption subsystem step boundaries to cut at.
func SyntheticStepsWorkload(n int, seed uint64, models []string, meanGapNs float64, maxSteps int) (ClusterWorkload, error) {
	return place.SyntheticSteps(n, seed, models, meanGapNs, maxSteps)
}

// Workload classes a ClusterJob may carry: batch training (the default
// when Class is empty) and latency-sensitive inference serving. An
// inference job is one forward step of its model's serving graph, carries
// an optional per-request SLO (ClusterJob.SLONs), jumps training in wave
// admission, and folds with same-model requests into dynamic batches.
const (
	ClassTraining  = place.ClassTraining
	ClassInference = place.ClassInference
)

// GPU sharing modes a GPUDevice schedules concurrent work under:
// time-sliced CUDA streams (the default) or MPS-style spatial sharing,
// which trades lower idle interference for steeper memory-pressure costs.
const (
	SharingStreams = gpu.SharingStreams
	SharingMPS     = gpu.SharingMPS
)

// SyntheticInferenceWorkload builds a deterministic open-loop serving
// stream: n single-step inference requests over the given models (nil
// means all four paper workloads), arriving through a two-phase bursty
// process around the mean calm gap (<= 0 means 2 ms), each carrying the
// per-request latency SLO sloNs (<= 0 picks a default of 50 mean gaps).
// Merge it with a training workload (ClusterWorkload.Merge) for the
// mixed-tenant runs the serving experiments use.
func SyntheticInferenceWorkload(n int, seed uint64, models []string, meanGapNs, sloNs float64) (ClusterWorkload, error) {
	return place.SyntheticInference(n, seed, models, meanGapNs, sloNs)
}

// BuildInferenceModel constructs the forward-only serving graph of the
// named workload at the given per-request batch size — the tiny graphs the
// inference job class schedules at high rate. Names accept the short
// spellings of ResolveModel.
func BuildInferenceModel(name string, batch int) (*Model, error) {
	canon, err := nn.Resolve(name)
	if err != nil {
		return nil, err
	}
	return nn.BuildInference(canon, batch)
}

// PreemptCheckpoint captures a preempted job's progress at a step
// boundary: steps completed, plus the parameter/optimizer state a
// migration must ship (see preempt.Checkpoint).
type PreemptCheckpoint = preempt.Checkpoint

// PreemptTrigger decides when a running gang wave should be cut short at
// its next per-job step boundary (see preempt.Trigger).
type PreemptTrigger = preempt.Trigger

// PreemptionTriggers lists the built-in preemption trigger names accepted
// in trigger specs: "priority" (a high-priority arrival never waits out a
// lower-priority gang), "deadline" (cut exactly when it converts a
// predicted deadline miss into a hit), "slo-at-risk" (the deadline rule
// applied to an inference request's latency SLO, so serving traffic
// preempts training) and "load" (spill a wave's tail to an idle node).
// Specs join names with "+", or use "all"/"none"/"off".
func PreemptionTriggers() []string { return preempt.Triggers() }

// RunPreemptiveCluster is PlaceJobs with preemption triggers armed:
// triggers is a spec in PreemptionTriggers' spelling ("all",
// "priority+deadline", ...). A preemptive run whose triggers never fire
// reports byte-identically to the run-to-completion engine; when they do
// fire, cut waves checkpoint their unfinished jobs at the step boundary
// and the migrator re-prices each across the fleet — cross-hardware
// CPU<->GPU moves included, paying the interconnect for checkpoint state
// plus re-staging.
func RunPreemptiveCluster(w ClusterWorkload, c Cluster, opts PlaceOptions, triggers string) (*PlacementResult, error) {
	opts.Preempt = triggers
	return place.PlaceJobs(w, c, opts)
}

// NamedWorkload pairs a job stream with a label for sweep attribution.
type NamedWorkload = sweep.NamedWorkload

// ClusterSweepGrid is a workload × policy × node-mix sweep specification;
// the node-mix axis crosses CPU node counts with GPU node counts.
type ClusterSweepGrid = sweep.ClusterGrid

// ClusterSweepCell is the outcome of one cluster-placement grid point.
type ClusterSweepCell = sweep.ClusterCell

// RunClusterSweep evaluates a workload × policy × cluster-size grid across
// up to parallelism worker goroutines, returning cells in the grid's
// deterministic enumeration order (see ClusterSweepGrid.Cells). Rendered
// reports are byte-identical whatever the parallelism.
func RunClusterSweep(ctx context.Context, g ClusterSweepGrid, parallelism int) ([]ClusterSweepCell, error) {
	return sweep.RunClusterGrid(ctx, g, parallelism)
}

// JobPipeline is a running admission→execution→metrics chain:
// Submit jobs (and optionally Ticks) from any goroutine, Close to send the
// END flag through every stage, Wait for the sealed result, Snapshot for
// live in-flight metrics (see pipeline.Pipeline).
type JobPipeline = pipeline.Pipeline

// PipelineConfig assembles a JobPipeline: the cluster and placement
// options its execution stage builds an engine from, plus streaming knobs
// (channel depth, live-snapshot cadence).
type PipelineConfig = pipeline.Config

// StreamSnapshot is a live metrics snapshot — counts, means, and
// p50/p95/p99 queue and JCT percentiles over everything completed so far.
type StreamSnapshot = pipeline.Snapshot

// NewJobPipeline starts the three pipeline stages over a fresh engine.
func NewJobPipeline(ctx context.Context, cfg PipelineConfig) (*JobPipeline, error) {
	return pipeline.New(ctx, cfg)
}

// JobSource streams job specs into a replay; Next returns io.EOF at the
// end of the stream (tracefile.Reader is one).
type JobSource = pipeline.Source

// ReplayTrace drives a job source through a fresh pipeline. speed scales
// wall-clock pacing of the virtual arrival gaps: 0 or +Inf replays as fast
// as the pipeline drains, 1 paces at native trace rate, 60 at 60×. The
// virtual-time result is the same whatever the speed.
func ReplayTrace(ctx context.Context, cfg PipelineConfig, src JobSource, speed float64) (*PlacementResult, error) {
	return pipeline.Replay(ctx, cfg, src, speed)
}

// Observer bundles the two observability sinks a run may attach through
// PlaceOptions.Obs (or PipelineConfig.Options.Obs): a metrics registry
// and/or a virtual-time scheduler tracer. Either field may be nil; a nil
// Observer (the default) disables observability entirely, and an attached
// one only records — rendered reports stay byte-identical with it on or
// off.
type Observer = obs.Observer

// MetricsRegistry is a lock-sharded registry of counters, gauges and
// histograms; WritePrometheus/PrometheusText render it in Prometheus text
// exposition format with deterministically sorted families and labels.
type MetricsRegistry = obs.Registry

// SchedTracer records job-lifecycle spans, per-node wave occupancy and
// trigger firings in the engine's virtual clock; WriteChromeTrace exports
// the log as Chrome trace-event JSON loadable in Perfetto (nodes as
// tracks, jobs as async spans, preemption→migration flows).
type SchedTracer = obs.Tracer

// MetricsCounter is a monotonically increasing counter instrument.
type MetricsCounter = obs.Counter

// MetricsGauge is a set-to-current-value gauge instrument.
type MetricsGauge = obs.Gauge

// MetricsHistogram is a fixed-bucket histogram instrument.
type MetricsHistogram = obs.Histogram

// MetricsCounterVec is a counter family keyed by label values.
type MetricsCounterVec = obs.CounterVec

// MetricsGaugeVec is a gauge family keyed by label values.
type MetricsGaugeVec = obs.GaugeVec

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewSchedTracer returns an empty scheduler tracer.
func NewSchedTracer() *SchedTracer { return obs.NewTracer() }

// NewObserver returns an Observer carrying both a fresh metrics registry
// and a fresh tracer — the everything-on configuration.
func NewObserver() *Observer {
	return &obs.Observer{Metrics: obs.NewRegistry(), Tracer: obs.NewTracer()}
}

// TraceReader streams a Philly/Helios-style CSV job trace one row at a
// time (see tracefile.Reader); it plugs into ReplayTrace as a JobSource.
type TraceReader = tracefile.Reader

// TraceOptions configure a trace read: time unit, arrival-gap compression,
// unknown-model palette, default step count, malformed-row policy.
type TraceOptions = tracefile.Options

// TraceStats summarize a trace read: rows, jobs, skips, out-of-order
// arrivals, hash-mapped model names.
type TraceStats = tracefile.Stats

// NewTraceReader decodes a trace's CSV header (case-insensitive alias
// matching over Philly/Helios/ad-hoc spellings) and prepares a streaming
// read.
func NewTraceReader(r io.Reader, opts TraceOptions) (*TraceReader, error) {
	return tracefile.NewReader(r, opts)
}
