// Package gpu models the Nvidia Tesla P100 study of the paper's Section
// VII: intra-op parallelism on a GPU is a two-dimensional knob — threads
// per thread block and number of thread blocks — and co-running operations
// on separate CUDA streams beats TensorFlow's single-stream serial
// execution. The occupancy model captures the three effects the paper
// observes: too few threads per block underutilizes each SM, too many
// wastes occupancy (up to 18% off the default); too few blocks starves
// latency hiding and too many pays wave-scheduling overhead (up to 11%);
// and two co-run kernels interleave with only mild interference (1.75-1.9×
// over serial).
package gpu

import (
	"errors"
	"fmt"
	"math"
)

// Device describes a GPU and its occupancy-model constants.
type Device struct {
	// SMs is the number of streaming multiprocessors (56 on P100).
	SMs int
	// MaxThreadsPerSM bounds resident threads per SM (2048 on P100).
	MaxThreadsPerSM int
	// BWBytesNs is HBM2 bandwidth in bytes/ns (~730 GB/s on P100).
	BWBytesNs float64
	// DefaultBlocks and DefaultTPB are TensorFlow's launch defaults on
	// this device (56 blocks × 1024 threads in the paper's setup).
	DefaultBlocks int
	DefaultTPB    int

	// PeakTPB is the threads-per-block sweet spot of the occupancy curve.
	PeakTPB float64
	// TPBSensitivity scales the occupancy loss away from PeakTPB.
	TPBSensitivity float64
	// LatencyFloor is the throughput fraction at zero occupancy.
	LatencyFloor float64
	// WaveOverhead is the per-extra-wave scheduling cost fraction.
	WaveOverhead float64

	// Streams is the number of concurrent CUDA streams the wave model
	// gangs jobs onto — the device's co-run capacity in cluster
	// placement; <= 0 means defaultStreams.
	Streams int
	// FlopsNs is the peak FP32 throughput in FLOPs per nanosecond
	// (~9300 on P100); <= 0 means the P100 default.
	FlopsNs float64
	// KernelLaunchNs is the per-kernel launch/driver overhead every
	// graph operation pays; <= 0 means the default (8 µs).
	KernelLaunchNs float64
	// FlopsHalf is the kernel FLOP count at which achieved compute
	// throughput reaches half of peak: below it the kernel cannot keep
	// enough threads in flight to hide latency, the GPU analogue of the
	// CPU model's GrainNs. <= 0 means the default.
	FlopsHalf float64
	// HBMBytes is the device-memory capacity in bytes (16 GB of HBM2 on
	// the P100) — the bound a gang wave's resident working sets must fit
	// within; <= 0 means the P100 default.
	HBMBytes float64

	// Sharing selects the concurrency mechanism co-running jobs share the
	// device through, following the NVIDIA concurrency-mechanism
	// characterization (arXiv:2110.00459): SharingStreams (the default,
	// also the empty string) time-slices kernels over CUDA streams, where
	// interference is mostly scheduler arbitration and grows mildly with
	// memory-boundedness; SharingMPS partitions SMs spatially MPS-style,
	// which nearly removes the arbitration cost for compute-bound kernels
	// but makes co-runners contend harder for the shared memory system.
	Sharing string
}

// Sharing modes accepted by Device.Sharing.
const (
	SharingStreams = "streams"
	SharingMPS     = "mps"
)

// SharingModes lists the accepted Device.Sharing spellings ("" is
// equivalent to SharingStreams).
func SharingModes() []string { return []string{SharingStreams, SharingMPS} }

// NewP100 returns the Tesla P100 (CUDA 9, cuDNN 7) configuration of §VII.
func NewP100() *Device {
	return &Device{
		SMs:             56,
		MaxThreadsPerSM: 2048,
		BWBytesNs:       730,
		DefaultBlocks:   56,
		DefaultTPB:      1024,
		PeakTPB:         512,
		TPBSensitivity:  0.30,
		LatencyFloor:    0.68,
		WaveOverhead:    0.006,
		Streams:         defaultStreams,
		FlopsNs:         defaultFlopsNs,
		KernelLaunchNs:  defaultKernelLaunchNs,
		FlopsHalf:       defaultFlopsHalf,
		HBMBytes:        defaultHBMBytes,
	}
}

// Validate reports whether the device description is usable. PeakTPB and
// the graph-work fields (Streams, FlopsNs, KernelLaunchNs, FlopsHalf) may be
// zero — accessors substitute the P100 defaults — but never negative or
// NaN.
func (d *Device) Validate() error {
	switch {
	case d.SMs <= 0:
		return errors.New("gpu: SMs must be positive")
	case d.MaxThreadsPerSM <= 0:
		return errors.New("gpu: MaxThreadsPerSM must be positive")
	// The float checks are written so that NaN fails them too.
	case !(d.BWBytesNs > 0):
		return errors.New("gpu: BWBytesNs must be positive")
	case !(d.PeakTPB >= 0):
		return errors.New("gpu: PeakTPB must be non-negative")
	case !(d.LatencyFloor > 0 && d.LatencyFloor <= 1):
		return errors.New("gpu: LatencyFloor must be in (0,1]")
	case !(d.TPBSensitivity >= 0):
		// Negative sensitivity flips the occupancy curve: tpbEff's
		// 1/(1+s·dev²) divides by ≤ 0 far from the peak and Time goes
		// negative or infinite.
		return errors.New("gpu: TPBSensitivity must be non-negative")
	case !(d.WaveOverhead >= 0):
		// Negative overhead makes blocksEff's 1/(1+o·(waves-1)) divide by
		// ≤ 0 at high block counts.
		return errors.New("gpu: WaveOverhead must be non-negative")
	case d.Streams < 0:
		return errors.New("gpu: Streams must be non-negative")
	case !(d.FlopsNs >= 0):
		return errors.New("gpu: FlopsNs must be non-negative")
	case !(d.KernelLaunchNs >= 0):
		return errors.New("gpu: KernelLaunchNs must be non-negative")
	case !(d.FlopsHalf >= 0):
		return errors.New("gpu: FlopsHalf must be non-negative")
	case !(d.HBMBytes >= 0):
		return errors.New("gpu: HBMBytes must be non-negative")
	}
	switch d.Sharing {
	case "", SharingStreams, SharingMPS:
	default:
		return fmt.Errorf("gpu: unknown sharing mode %q (have %v)", d.Sharing, SharingModes())
	}
	return nil
}

// String implements fmt.Stringer.
func (d *Device) String() string {
	return fmt.Sprintf("gpu{%d SMs, %d streams, %.0f GB/s}",
		d.SMs, d.StreamCapacity(), d.BWBytesNs)
}

// Kernel is one GPU operation instance.
type Kernel struct {
	// Name identifies the operation (Table VII's rows).
	Name string
	// WorkNs is the kernel's compute time at full device utilization.
	WorkNs float64
	// Bytes is the main-memory traffic.
	Bytes float64
	// LaunchNs is the fixed launch/driver overhead.
	LaunchNs float64
	// MemFrac in [0,1] describes how memory-bound the kernel is; it
	// drives co-run interference.
	MemFrac float64
}

// tpbEff is the throughput factor of the threads-per-block choice: a
// shallow peak at PeakTPB, matching the paper's ≤18% swing across
// 64..16384 threads per block. An unset PeakTPB falls back to the P100's
// 512 so a validated device never prices kernels at NaN.
func (d *Device) tpbEff(tpb int) float64 {
	if tpb <= 0 {
		return 0
	}
	peakTPB := d.PeakTPB
	if peakTPB <= 0 {
		peakTPB = 512
	}
	dev := math.Log2(float64(tpb) / peakTPB)
	peak := 1 / (1 + d.TPBSensitivity*dev*dev)
	return 0.80 + 0.20*peak
}

// blocksEff is the throughput factor of the block-count choice: occupancy
// for latency hiding rises until the device is full, then extra waves cost
// WaveOverhead each.
func (d *Device) blocksEff(blocks, tpb int) float64 {
	if blocks <= 0 {
		return 0
	}
	resident := float64(blocks*tpb) / float64(d.SMs*d.MaxThreadsPerSM)
	if resident > 1 {
		resident = 1
	}
	lat := d.LatencyFloor + (1-d.LatencyFloor)*resident
	waves := (blocks + d.SMs - 1) / d.SMs
	return lat / (1 + d.WaveOverhead*float64(waves-1))
}

// Time returns the kernel's execution time with the given launch
// configuration, in nanoseconds.
func (d *Device) Time(k Kernel, blocks, tpb int) float64 {
	if blocks <= 0 || tpb <= 0 {
		return math.Inf(1)
	}
	eff := d.tpbEff(tpb) * d.blocksEff(blocks, tpb)
	comp := k.WorkNs / eff
	mem := k.Bytes / d.BWBytesNs
	return k.LaunchNs + comp + mem
}

// DefaultTime is Time at TensorFlow's default launch configuration.
func (d *Device) DefaultTime(k Kernel) float64 {
	return d.Time(k, d.DefaultBlocks, d.DefaultTPB)
}

// BestConfig sweeps the paper's configuration ranges and returns the
// fastest (blocks, tpb) pair with its time.
func (d *Device) BestConfig(k Kernel, blockGrid, tpbGrid []int) (blocks, tpb int, t float64) {
	t = math.Inf(1)
	for _, b := range blockGrid {
		for _, tp := range tpbGrid {
			if v := d.Time(k, b, tp); v < t {
				blocks, tpb, t = b, tp, v
			}
		}
	}
	return blocks, tpb, t
}

// SerialTime is the single-stream (TensorFlow default) time of running two
// kernels back to back.
func (d *Device) SerialTime(a, b Kernel, blocks, tpb int) float64 {
	return d.Time(a, blocks, tpb) + d.Time(b, blocks, tpb)
}

// CoRunTime is the makespan of two kernels issued on two CUDA streams. The
// kernels interleave waves; interference grows with how memory-bound they
// are and how much their executions overlap.
func (d *Device) CoRunTime(a, b Kernel, blocks, tpb int) float64 {
	ta := d.Time(a, blocks, tpb)
	tb := d.Time(b, blocks, tpb)
	long, short := ta, tb
	if tb > ta {
		long, short = tb, ta
	}
	if long == 0 {
		return 0
	}
	overlap := short / long
	return long * (1 + d.interference((a.MemFrac+b.MemFrac)/2)*overlap)
}

// interference is the per-co-runner slowdown fraction of the device's
// sharing mode at a given memory-boundedness: time-sliced streams pay a
// flat arbitration cost plus a mild memory term, MPS-style spatial
// partitions nearly eliminate arbitration for compute-bound kernels but
// steepen the memory-contention slope (arXiv:2110.00459's crossover —
// streams win for memory-bound co-runs, MPS for compute-bound ones).
func (d *Device) interference(memFrac float64) float64 {
	if d.Sharing == SharingMPS {
		return 0.02 + 0.14*memFrac
	}
	return streamInterference(memFrac)
}
