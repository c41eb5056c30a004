package gpu

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"opsched/internal/graph"
	"opsched/internal/op"
)

// Graph-work defaults, calibrated against the P100: peak FP32 throughput
// 9.3 TFLOPS, ~8 µs of launch/driver overhead per kernel, and a half-
// saturation point of 0.32 GFLOP — a kernel below a few hundred MFLOPs
// cannot keep the 56 SMs' latency hiding fed, which is why launch-bound
// workloads (LSTM's hundreds of tiny cells) run *slower* on the GPU than
// on the manycore CPU while convolution-heavy graphs run several times
// faster (the Section VII asymmetry heterogeneous placement exploits).
const (
	defaultStreams        = 8
	defaultFlopsNs        = 9300
	defaultKernelLaunchNs = 8e3
	defaultFlopsHalf      = 3.2e8
	defaultHBMBytes       = 16e9
)

// StreamCapacity is the number of jobs a gang wave may co-run on the
// device — one stream per job.
func (d *Device) StreamCapacity() int {
	if d.Streams <= 0 {
		return defaultStreams
	}
	return d.Streams
}

func (d *Device) flopsNs() float64 {
	if d.FlopsNs <= 0 {
		return defaultFlopsNs
	}
	return d.FlopsNs
}

func (d *Device) kernelLaunchNs() float64 {
	if d.KernelLaunchNs <= 0 {
		return defaultKernelLaunchNs
	}
	return d.KernelLaunchNs
}

func (d *Device) flopsHalf() float64 {
	if d.FlopsHalf <= 0 {
		return defaultFlopsHalf
	}
	return d.FlopsHalf
}

// MemBytes is the device-memory capacity a gang wave's resident working
// sets must fit within — 16 GB of HBM2 on the P100.
func (d *Device) MemBytes() float64 {
	if d.HBMBytes <= 0 {
		return defaultHBMBytes
	}
	return d.HBMBytes
}

// launchConfig is the launch configuration graph-work predictions price
// kernels at: the device's defaults, falling back to the P100's (56
// blocks × 1024 threads) when unset so a validated device never predicts
// +Inf work.
func (d *Device) launchConfig() (blocks, tpb int) {
	blocks, tpb = d.DefaultBlocks, d.DefaultTPB
	if blocks <= 0 {
		blocks = 56
	}
	if tpb <= 0 {
		tpb = 1024
	}
	return blocks, tpb
}

// OpKernel maps one dataflow operation to the kernel the device model
// prices: compute time from the FLOP count through the occupancy-limited
// throughput curve (a kernel achieves peak in proportion to how far past
// FlopsHalf it is, so WorkNs = (FLOPs+FlopsHalf)/FlopsNs), memory traffic
// from the tensor footprint, and the kind's memory-boundedness from the
// resulting compute/traffic balance.
func (d *Device) OpKernel(o *op.Op) Kernel {
	flops := o.FLOPs()
	bytes := o.TensorBytes()
	comp := (flops + d.flopsHalf()) / d.flopsNs()
	mem := bytes / d.BWBytesNs
	frac := 0.0
	if comp+mem > 0 {
		frac = mem / (comp + mem)
	}
	return Kernel{
		Name:     string(o.Kind),
		WorkNs:   comp,
		Bytes:    bytes,
		LaunchNs: d.kernelLaunchNs(),
		MemFrac:  frac,
	}
}

// GraphWork is a per-graph GPU execution prediction: what one training job
// costs alone on the device, plus the work-weighted memory-boundedness
// that drives its co-run interference inside a wave.
type GraphWork struct {
	// SoloNs is the job's predicted makespan alone on the device: its
	// kernels issued dependency-serial on one stream at the default
	// launch configuration (TensorFlow's single-stream behaviour, the
	// baseline of Table VII).
	SoloNs float64
	// MemFrac is the work-weighted average memory-boundedness of the
	// job's kernels, in [0,1].
	MemFrac float64
	// Kernels is the number of operations (= kernel launches) per step.
	Kernels int
	// WorkingSetBytes estimates the job's HBM residency while training —
	// what wave admission packs against the device's MemBytes capacity.
	WorkingSetBytes float64
}

// WorkingSetBytes estimates the HBM residency of one resident training
// job from the graph's tensor sizes: the parameters together with their
// gradients and optimizer moments (3× the parameter bytes an optimizer
// update touches), plus the forward activations retained for the backward
// pass, approximated as half the graph's summed output-tensor bytes —
// roughly the forward half of the step. On the paper's workloads this
// prices a ResNet-50 at ~4.5 GB, so a 16 GB P100 admits three but not
// four, while DCGAN and LSTM stay under 150 MB and remain stream-bound.
func WorkingSetBytes(g *graph.Graph) float64 {
	var params, activations float64
	for _, n := range g.Nodes() {
		switch n.Op.Kind {
		case op.ApplyAdam, op.ApplyGradientDescent:
			params += n.Op.Input.Bytes()
		}
		activations += n.Op.OutputDims().Bytes()
	}
	return 3*params + activations/2
}

// PredictGraphWork prices graph g on the device: per-kernel times at the
// default launch configuration, summed serially. It is the GPU analogue of
// multijob.PredictedSoloWorkNs — the work metric heterogeneous placement
// policies rank GPU nodes by.
func (d *Device) PredictGraphWork(g *graph.Graph) GraphWork {
	blocks, tpb := d.launchConfig()
	var total, memWeighted float64
	for _, n := range g.Nodes() {
		k := d.OpKernel(n.Op)
		t := d.Time(k, blocks, tpb)
		total += t
		memWeighted += t * k.MemFrac
	}
	w := GraphWork{SoloNs: total, Kernels: g.Len(), WorkingSetBytes: WorkingSetBytes(g)}
	if total > 0 {
		w.MemFrac = memWeighted / total
	}
	return w
}

// CoRunAlpha is the representative per-co-runner slowdown coefficient of
// the device's sharing mode at a mixed (MemFrac 0.5) kernel population —
// the factor a placement policy inflates a GPU node's predicted finish
// time by for each resident job, mirroring the CPU mesh interference
// constant.
func (d *Device) CoRunAlpha() float64 { return d.interference(0.5) }

// streamInterference is the pairwise stream-interference coefficient of
// CoRunTime, extended to an average memory-boundedness.
func streamInterference(memFrac float64) float64 { return 0.05 + 0.08*memFrac }

// WaveJobOutcome is one job's outcome inside a co-run wave.
type WaveJobOutcome struct {
	// MakespanNs is the job's finish time with every wave job launched at
	// time zero; Slowdown is MakespanNs over the job's solo time (>= 1:
	// sharing the device only hurts).
	MakespanNs float64
	Slowdown   float64
}

// CoRunWave gang-simulates len(jobs) training jobs launched together on
// separate streams, generalizing the two-kernel CoRunTime to a wave: with
// m jobs still active the device retires their aggregate work at
// m/(1+i·(m-1)) times the serial rate, where i is the active jobs'
// average stream interference — two equal jobs therefore finish in
// (1+i)·solo, matching the paper's 1.75–1.9× over serial, and each
// additional stream helps less. The fluid simulation advances from one
// job completion to the next, so per-job finish times are exact for the
// model and deterministic in job order. The wave never exceeds the
// device's stream capacity.
func (d *Device) CoRunWave(jobs []GraphWork) ([]WaveJobOutcome, float64, error) {
	if len(jobs) == 0 {
		return nil, 0, fmt.Errorf("gpu: empty co-run wave")
	}
	if capacity := d.StreamCapacity(); len(jobs) > capacity {
		return nil, 0, fmt.Errorf("gpu: wave of %d jobs exceeds the device's %d streams", len(jobs), capacity)
	}
	outs := make([]WaveJobOutcome, len(jobs))
	// Active jobs in ascending remaining-work order; ties keep input
	// order (a stable sort) so the simulation is deterministic.
	type active struct {
		idx       int
		remaining float64
		memFrac   float64
	}
	var act []active
	for i, j := range jobs {
		if j.SoloNs < 0 || math.IsNaN(j.SoloNs) || math.IsInf(j.SoloNs, 0) {
			return nil, 0, fmt.Errorf("gpu: wave job %d has non-finite solo time %v", i, j.SoloNs)
		}
		if j.SoloNs == 0 {
			outs[i] = WaveJobOutcome{MakespanNs: 0, Slowdown: 1}
			continue
		}
		act = append(act, active{idx: i, remaining: j.SoloNs, memFrac: j.MemFrac})
	}
	slices.SortStableFunc(act, func(a, b active) int { return cmp.Compare(a.remaining, b.remaining) })

	clock := 0.0
	for len(act) > 0 {
		m := float64(len(act))
		avgMem := 0.0
		for _, a := range act {
			avgMem += a.memFrac
		}
		avgMem /= m
		// Aggregate throughput of m concurrent streams is m/(1+i(m-1))
		// in units of the serial rate — always >= 1 and <= m — so each
		// job's equal share is 1/(1+i(m-1)), never above its solo rate.
		rate := 1 / (1 + d.interference(avgMem)*(m-1))
		shortest := act[0].remaining
		clock += shortest / rate
		finished := 0
		for i := range act {
			act[i].remaining -= shortest
			if act[i].remaining <= 1e-9*shortest {
				act[i].remaining = 0
			}
		}
		for _, a := range act {
			if a.remaining == 0 {
				outs[a.idx] = WaveJobOutcome{
					MakespanNs: clock,
					Slowdown:   clock / jobs[a.idx].SoloNs,
				}
				finished++
			} else {
				break
			}
		}
		act = act[finished:]
	}
	return outs, clock, nil
}
