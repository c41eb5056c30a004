// Package hw models the Intel Knights Landing (KNL, Xeon Phi 7250) manycore
// processor used by the paper as an analytic performance machine.
//
// The model is deliberately mechanistic rather than statistical: every
// observation the paper reports (convex time-vs-threads curves with interior
// optima, input-size-dependent optima, co-running wins, marginal
// hyper-threading gains, oversubscription collapse) emerges from explicit
// terms — Amdahl serial fractions, thread-spawn overhead, per-thread
// synchronization decay, tile-local L2 capacity, bandwidth saturation and
// SMT efficiency — rather than from fitted lookup tables.
package hw

import (
	"errors"
	"fmt"
	"strconv"
)

// Machine describes a manycore processor and the constants of its analytic
// performance model. The zero value is not usable; construct with NewKNL or
// fill every field and call Validate.
type Machine struct {
	// Topology.
	Cores        int // physical cores (68 on KNL)
	CoresPerTile int // cores sharing an L2 tile (2 on KNL)
	HTPerCore    int // hardware threads per core (4 on KNL)

	// Caches and memory.
	L2PerTileBytes float64 // shared L2 per tile (1 MiB on KNL)
	BWMaxBytesNs   float64 // peak memory bandwidth in bytes/ns (MCDRAM cache mode)
	BWHalf         float64 // threads at which achievable bandwidth is half of peak

	// Compute efficiency model.
	SyncAlpha  float64 // per-thread efficiency decay: eff(p)=1/(1+alpha*ln p)
	HT2Eff     float64 // per-thread throughput with 2 resident threads/core
	HT4Eff     float64 // per-thread throughput with 4 resident threads/core
	OversubMul float64 // extra slowdown per unit of oversubscription beyond HT capacity

	// GrainNs is the minimum useful work per thread: like MKL-DNN's
	// internal nthr heuristic, the kernel library never fans an operation
	// out to more threads than its parallel work can fill at this grain,
	// no matter how many the framework offers. Small operations therefore
	// run on few threads even under the 68-thread default — which is why
	// the paper's Table VI shows only 1-3% headroom on small operations
	// but up to 34% on large ones.
	GrainNs float64
}

// NewKNL returns the Xeon Phi 7250 model used throughout the paper:
// 68 cores in 34 tiles (two cores per tile sharing 1 MiB of L2), four
// hardware threads per core, and 16 GB of MCDRAM configured in cache mode.
func NewKNL() *Machine {
	return &Machine{
		Cores:          68,
		CoresPerTile:   2,
		HTPerCore:      4,
		L2PerTileBytes: 1 << 20,
		// MCDRAM in cache mode sustains ~380 GB/s ≈ 380 bytes/ns.
		BWMaxBytesNs: 380,
		BWHalf:       6,
		SyncAlpha:    0.035,
		HT2Eff:       0.52,
		HT4Eff:       0.15,
		OversubMul:   1.6,
		GrainNs:      25e3,
	}
}

// Tiles reports the number of L2 tiles on the machine.
func (m *Machine) Tiles() int { return m.Cores / m.CoresPerTile }

// LogicalCPUs reports the total number of hardware threads.
func (m *Machine) LogicalCPUs() int { return m.Cores * m.HTPerCore }

// Validate reports whether the machine description is internally consistent.
func (m *Machine) Validate() error {
	switch {
	case m.Cores <= 0:
		return errors.New("hw: Cores must be positive")
	case m.CoresPerTile <= 0 || m.Cores%m.CoresPerTile != 0:
		return fmt.Errorf("hw: CoresPerTile %d must divide Cores %d", m.CoresPerTile, m.Cores)
	case m.HTPerCore <= 0:
		return errors.New("hw: HTPerCore must be positive")
	// The float checks are written so that NaN fails them too.
	case !(m.L2PerTileBytes > 0):
		return errors.New("hw: L2PerTileBytes must be positive")
	case !(m.BWMaxBytesNs > 0):
		return errors.New("hw: BWMaxBytesNs must be positive")
	case !(m.BWHalf > 0):
		return errors.New("hw: BWHalf must be positive")
	case !(m.SyncAlpha >= 0):
		return errors.New("hw: SyncAlpha must be non-negative")
	case !(m.HT2Eff > 0 && m.HT2Eff <= 1):
		return errors.New("hw: HT2Eff must be in (0,1]")
	case !(m.HT4Eff > 0 && m.HT4Eff <= m.HT2Eff):
		return errors.New("hw: HT4Eff must be in (0,HT2Eff]")
	case !(m.OversubMul >= 0):
		return errors.New("hw: OversubMul must be non-negative")
	case !(m.GrainNs >= 0):
		return errors.New("hw: GrainNs must be non-negative")
	}
	return nil
}

// Bandwidth reports the achievable memory bandwidth, in bytes/ns, when p
// threads stream concurrently. A single KNL core cannot saturate MCDRAM;
// achievable bandwidth follows the usual saturating curve
// BW(p) = BWmax * p/(p+BWHalf).
func (m *Machine) Bandwidth(p int) float64 {
	if p <= 0 {
		return 0
	}
	fp := float64(p)
	return m.BWMaxBytesNs * fp / (fp + m.BWHalf)
}

// String implements fmt.Stringer. Every simulated wave renders it, so it
// avoids fmt: fmt's buffer pool makes a call's allocation count depend on
// when the garbage collector last emptied the pool.
func (m *Machine) String() string {
	return "machine{" + strconv.Itoa(m.Cores) + " cores, " +
		strconv.Itoa(m.Tiles()) + " tiles, " +
		strconv.Itoa(m.HTPerCore) + " HT/core, " +
		strconv.FormatFloat(m.BWMaxBytesNs, 'f', 0, 64) + " GB/s}"
}
