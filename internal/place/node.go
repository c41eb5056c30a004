package place

import (
	"fmt"

	"opsched/internal/core"
	"opsched/internal/gpu"
	"opsched/internal/hw"
	"opsched/internal/multijob"
	"opsched/internal/perfmodel"
)

// Node describes one cluster node's hardware: exactly one of CPU (a
// manycore machine running jobs through the multi-job engine) or GPU (a
// device co-running jobs on streams) must be set.
type Node struct {
	// CPU is the node's manycore machine model, or nil.
	CPU *hw.Machine
	// GPU is the node's GPU device model, or nil.
	GPU *gpu.Device
}

// Kind reports the node's hardware kind, "cpu" or "gpu".
func (n Node) Kind() string {
	if n.GPU != nil {
		return KindGPU
	}
	return KindCPU
}

// Validate rejects descriptors with neither or both hardware models, or an
// inconsistent model.
func (n Node) Validate() error {
	switch {
	case n.CPU == nil && n.GPU == nil:
		return fmt.Errorf("place: node needs a CPU machine or a GPU device")
	case n.CPU != nil && n.GPU != nil:
		return fmt.Errorf("place: node cannot carry both a CPU machine and a GPU device")
	case n.CPU != nil:
		if err := n.CPU.Validate(); err != nil {
			return fmt.Errorf("place: node machine: %w", err)
		}
	default:
		if err := n.GPU.Validate(); err != nil {
			return fmt.Errorf("place: node device: %w", err)
		}
	}
	return nil
}

// Hardware kinds a Node reports.
const (
	KindCPU = "cpu"
	KindGPU = "gpu"
)

// WaveJob is one resident job entering a gang-scheduled wave. A wave's
// outcome is a function of its jobs' Model, Priority, normalized Weight and
// Class, in input order; that ordered tuple list is exactly the wave memo's
// key (gangsig.go). Name only labels the job.
type WaveJob struct {
	// Name and Model identify the job; Model is canonical (nn.Resolve).
	Name  string
	Model string
	// Priority and Weight feed the CPU arbiter; GPU streams share the
	// device equally and ignore both.
	Priority int
	Weight   float64
	// Class is the job's workload class (ClassTraining when empty). The
	// CPU runtime boosts an inference slot's arbiter weight by it.
	Class string
}

// WaveJobResult is one job's outcome inside a wave.
type WaveJobResult struct {
	// SoloNs is the job's makespan alone on this node's hardware;
	// MakespanNs its makespan inside the wave; Slowdown the ratio (>= 1).
	SoloNs     float64
	MakespanNs float64
	Slowdown   float64
}

// WaveResult is the outcome of gang-running one wave on a node.
type WaveResult struct {
	// TotalNs is the wave makespan (the last job's finish).
	TotalNs float64
	// Jobs holds per-job outcomes in wave input order.
	Jobs []WaveJobResult
}

// NodeRuntime abstracts one node's hardware behind the three questions the
// placement engine asks: how many jobs fit a gang wave, what would one job
// of a model cost alone here, and what does a wave of resident jobs
// actually cost. A CPU node answers through the multi-job co-scheduling
// engine; a GPU node through the occupancy/stream co-run model. Both
// implementations are deterministic, and RunWave only simulates: caching
// whole waves is the engine's (gangsig.go). A runtime's only state across
// waves is per-model front maps over values a wave would otherwise
// recompute identically (predicted work, and on a CPU node the profiled
// runtime job and its solo makespan). Those values are built once per
// process (perfmodel.Derive) and shared by every runtime on equal
// hardware; nodes sharing one hardware descriptor share one runtime and
// its front maps.
type NodeRuntime interface {
	// Kind is the hardware kind, KindCPU or KindGPU.
	Kind() string
	// Hardware describes the node's hardware for reports.
	Hardware() string
	// Capacity is the maximum number of jobs one gang wave may co-run:
	// physical cores on a CPU node, streams on a GPU node.
	Capacity() int
	// MemCapacityBytes is the device-memory budget a wave's resident
	// working sets must fit within; 0 means memory does not bound wave
	// admission on this hardware (a CPU node pages to DDR).
	MemCapacityBytes() float64
	// JobMemBytes estimates one resident job's working set on this
	// hardware; 0 when MemCapacityBytes is 0.
	JobMemBytes(model string) float64
	// WaveAlpha is the per-co-runner finish-time inflation the
	// model-aware policy prices a resident job at on this hardware.
	WaveAlpha() float64
	// SoloWorkNs is the predicted execution time of one job of the
	// canonical model alone on this node's hardware.
	SoloWorkNs(model string) float64
	// RunWave gang-simulates the wave and reports per-job outcomes in
	// input order. All jobs launch at wave-relative time zero.
	RunWave(jobs []WaveJob) (*WaveResult, error)
}

// workCache is a runtime's front map over per-model values by model key,
// so a pick or a wave never boxes a hardware key under the process-wide
// table's mutex. The model-key universe is tiny — the four workloads plus
// a handful of dynamic-batch inference keys.
type workCache[V any] map[string]V

// get returns the cached value for key, computing it on first use.
func (c *workCache[V]) get(key string, compute func() V) V {
	if v, ok := (*c)[key]; ok {
		return v
	}
	if *c == nil {
		*c = make(workCache[V], 8)
	}
	v := compute()
	(*c)[key] = v
	return v
}

// cpuRuntime runs gangs through multijob.CoRun: per-job runtime
// schedulers under a cross-job arbiter, contention priced over the union
// of in-flight operations — the identical-node behaviour the engine had
// before heterogeneous clusters. A one-job wave is the job's solo step,
// read from its model's cached solo makespan.
type cpuRuntime struct {
	m        *hw.Machine
	hardware string // m.String(), rendered once
	arb      multijob.Arbiter
	work     workCache[float64]
	models   workCache[cpuModel]
}

// cpuModel is what every wave of one model key shares on one machine: the
// runtime job profiled under the model key and its solo makespan, or the
// error preparing them failed with (the caller labels it with its own
// job's name). It is keyed process-wide by cpuModelKey, not by graph
// signature: buildModelGraph is a pure function of the model key, so the
// key fixes the graph exactly — Op.Window included, which the signature
// omits — and with the machine fixes what a fresh multijob.RuntimeJob and
// multijob.SoloNs compute. The profiled core.Runtime is read-only, so
// engines and waves may share it, even two jobs of one wave.
type cpuModel struct {
	job    multijob.Job
	soloNs float64
	err    error
}

// cpuModelKey keys a cpuModel in the process-wide derived table. Every
// CPU job runs the full runtime (core.AllStrategies) profiled at
// core.ProfileInterval, so the machine and the model key fix the value.
type cpuModelKey struct {
	m     hw.Machine
	model string
}

// prepare profiles the key's runtime job and runs its solo step on the
// key's own copy of the machine, so a shared value never aliases a
// caller's machine.
func (k cpuModelKey) prepare() cpuModel {
	job, err := multijob.RuntimeJob(k.model, modelGraph(k.model), &k.m, core.AllStrategies())
	if err != nil {
		return cpuModel{err: err}
	}
	solo, err := multijob.SoloNs(job, &k.m)
	return cpuModel{job: job, soloNs: solo, err: err}
}

// cpuWorkKey keys a model's predicted solo work on a CPU machine in the
// process-wide derived table.
type cpuWorkKey struct {
	m     hw.Machine
	model string
}

// cpuMeshAlpha mirrors the exec engine's pinned mesh-interference
// constant: each additional co-runner costs roughly this fraction of
// throughput on a manycore node.
const cpuMeshAlpha = 0.22

// inferenceWeightBoost multiplies an inference slot's fair-share weight
// inside a CPU wave: the cross-job arbiter grants latency-class requests a
// larger core share than the training jobs they co-run with, the CPU-node
// analogue of the GPU path's queue-jumping admission. Training-only waves
// never see it, so their arbiter budgets are unchanged.
const inferenceWeightBoost = 4

func (c *cpuRuntime) Kind() string               { return KindCPU }
func (c *cpuRuntime) Hardware() string           { return c.hardware }
func (c *cpuRuntime) Capacity() int              { return c.m.Cores }
func (c *cpuRuntime) WaveAlpha() float64         { return cpuMeshAlpha }
func (c *cpuRuntime) MemCapacityBytes() float64  { return 0 }
func (c *cpuRuntime) JobMemBytes(string) float64 { return 0 }

func (c *cpuRuntime) SoloWorkNs(model string) float64 {
	return c.work.get(model, func() float64 {
		k := cpuWorkKey{*c.m, model}
		return perfmodel.Derive(k, func() any {
			return multijob.PredictedSoloWorkNs(&k.m, modelGraph(model))
		}).(float64)
	})
}

// model returns the shared profiled job and solo makespan of a model key
// on this runtime's machine.
func (c *cpuRuntime) model(key string) cpuModel {
	return c.models.get(key, func() cpuModel {
		k := cpuModelKey{*c.m, key}
		return perfmodel.Derive(k, func() any { return k.prepare() }).(cpuModel)
	})
}

// RunWave prices one wave fresh. A lone job's co-run is its solo step
// under every arbiter at any admissible priority and weight
// (multijob.SoloNs), so a one-job wave is answered from the model's cached
// solo makespan without running the op-event loop; a gang goes through
// coRun.
func (c *cpuRuntime) RunWave(jobs []WaveJob) (*WaveResult, error) {
	if len(jobs) != 1 {
		return c.coRun(jobs)
	}
	mdl := c.model(jobs[0].Model)
	if mdl.err != nil {
		return nil, fmt.Errorf("place: job %s: %w", jobs[0].Name, mdl.err)
	}
	return soloWave(mdl.soloNs), nil
}

// coRun prices a wave through the multi-job co-scheduling engine; each
// job's profile and solo baseline come from the shared per-model values.
func (c *cpuRuntime) coRun(jobs []WaveJob) (*WaveResult, error) {
	mj := make([]multijob.Job, len(jobs))
	solos := make([]float64, len(jobs))
	for i, wj := range jobs {
		mdl := c.model(wj.Model)
		if mdl.err != nil {
			return nil, fmt.Errorf("place: job %s: %w", wj.Name, mdl.err)
		}
		mj[i] = cpuWaveJob(wj, mdl.job)
		solos[i] = mdl.soloNs
	}
	res, err := multijob.CoRun(mj, solos, c.arb, c.m)
	if err != nil {
		return nil, err
	}
	return cpuWaveResult(res), nil
}

// cpuWaveJob labels a profiled runtime job as wave job wj: its name, its
// priority and its arbiter weight, boosted for an inference slot up to
// multijob.MaxWeight.
func cpuWaveJob(wj WaveJob, job multijob.Job) multijob.Job {
	job.Name = wj.Name
	job.Priority = wj.Priority
	job.Weight = wj.Weight
	if wj.Class == ClassInference {
		w := wj.Weight
		if w <= 0 {
			w = 1
		}
		job.Weight = min(w*inferenceWeightBoost, multijob.MaxWeight)
	}
	return job
}

// cpuWaveResult keeps the per-job times of a co-run.
func cpuWaveResult(res *multijob.Result) *WaveResult {
	out := &WaveResult{TotalNs: res.TotalNs, Jobs: make([]WaveJobResult, len(res.Jobs))}
	for i, jr := range res.Jobs {
		out.Jobs[i] = WaveJobResult{SoloNs: jr.SoloNs, MakespanNs: jr.MakespanNs, Slowdown: jr.Slowdown}
	}
	return out
}

// soloWave is the wave of one job whose solo makespan is soloNs: what
// cpuWaveResult makes of that job's one-job co-run, whose makespan is
// soloNs and whose slowdown is 1 (0 for an empty step).
func soloWave(soloNs float64) *WaveResult {
	jr := WaveJobResult{SoloNs: soloNs, MakespanNs: soloNs}
	if soloNs > 0 {
		jr.Slowdown = 1
	}
	return &WaveResult{TotalNs: soloNs, Jobs: []WaveJobResult{jr}}
}

// gpuRuntime runs waves through the gpu occupancy/stream model: each
// resident job owns one stream, the fluid co-run simulation prices their
// mutual interference, and capacity is the device's stream count. Arbiter
// priorities and weights do not apply — streams share the device equally.
type gpuRuntime struct {
	d        *gpu.Device
	hardware string // d.String(), rendered once
	work     workCache[gpu.GraphWork]
}

// gpuWorkKey keys a model's predicted graph work on a GPU device in the
// process-wide derived table.
type gpuWorkKey struct {
	d     gpu.Device
	model string
}

func (g *gpuRuntime) Kind() string              { return KindGPU }
func (g *gpuRuntime) Hardware() string          { return g.hardware }
func (g *gpuRuntime) Capacity() int             { return g.d.StreamCapacity() }
func (g *gpuRuntime) WaveAlpha() float64        { return g.d.CoRunAlpha() }
func (g *gpuRuntime) MemCapacityBytes() float64 { return g.d.MemBytes() }

// JobMemBytes is the model's estimated HBM working set — parameters with
// optimizer state plus retained activations (gpu.WorkingSetBytes).
func (g *gpuRuntime) JobMemBytes(model string) float64 { return g.graphWork(model).WorkingSetBytes }

func (g *gpuRuntime) graphWork(model string) gpu.GraphWork {
	return g.work.get(model, func() gpu.GraphWork {
		k := gpuWorkKey{*g.d, model}
		return perfmodel.Derive(k, func() any { return k.d.PredictGraphWork(modelGraph(model)) }).(gpu.GraphWork)
	})
}

func (g *gpuRuntime) SoloWorkNs(model string) float64 { return g.graphWork(model).SoloNs }

// RunWave prices one wave fresh through the occupancy/stream co-run model.
func (g *gpuRuntime) RunWave(jobs []WaveJob) (*WaveResult, error) {
	works := make([]gpu.GraphWork, len(jobs))
	for i, wj := range jobs {
		works[i] = g.graphWork(wj.Model)
	}
	outs, total, err := g.d.CoRunWave(works)
	if err != nil {
		return nil, fmt.Errorf("place: %w", err)
	}
	out := &WaveResult{TotalNs: total, Jobs: make([]WaveJobResult, len(jobs))}
	for i, o := range outs {
		out.Jobs[i] = WaveJobResult{SoloNs: works[i].SoloNs, MakespanNs: o.MakespanNs, Slowdown: o.Slowdown}
	}
	return out, nil
}
