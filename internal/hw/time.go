package hw

import (
	"errors"
	"math"
)

// OpCost is the machine-independent cost description of one operation
// instance. The op package derives these from operation kind and tensor
// shapes; the hw package turns them into execution time for a concrete
// thread count, placement and co-run context.
type OpCost struct {
	// WorkNs is the single-thread compute time of the operation in
	// nanoseconds, at full per-thread efficiency.
	WorkNs float64
	// SerialFrac is the Amdahl fraction of WorkNs that cannot be
	// parallelized (kernel setup, reduction tails, framework bookkeeping).
	SerialFrac float64
	// SpawnNs is the per-thread cost of spawning/binding an OpenMP worker
	// and passing the fork-join barrier. On KNL this is tens of
	// microseconds and is the main reason small operations stop scaling.
	SpawnNs float64
	// Bytes is the total main-memory traffic in bytes the operation incurs
	// when nothing is cached.
	Bytes float64
	// WorkingSetBytes is the live working set that competes for L2 space.
	WorkingSetBytes float64
	// ShareFrac is the fraction of a thread's working set that is shared
	// with its tile-mate when neighbouring threads are placed on the same
	// tile (high for convolutions that reuse halo regions and weights,
	// near zero for streaming elementwise ops).
	ShareFrac float64
	// MissBase is the compulsory LLC miss fraction when the working set
	// fits in cache (streaming ops approach 1, blocked kernels are low).
	MissBase float64
}

// Validate reports whether the cost description is usable.
func (c OpCost) Validate() error {
	switch {
	case c.WorkNs <= 0:
		return errors.New("hw: OpCost.WorkNs must be positive")
	case c.SerialFrac < 0 || c.SerialFrac >= 1:
		return errors.New("hw: OpCost.SerialFrac must be in [0,1)")
	case c.SpawnNs < 0:
		return errors.New("hw: OpCost.SpawnNs must be non-negative")
	case c.Bytes < 0:
		return errors.New("hw: OpCost.Bytes must be non-negative")
	case c.WorkingSetBytes < 0:
		return errors.New("hw: OpCost.WorkingSetBytes must be non-negative")
	case c.ShareFrac < 0 || c.ShareFrac > 1:
		return errors.New("hw: OpCost.ShareFrac must be in [0,1]")
	case c.MissBase < 0 || c.MissBase > 1:
		return errors.New("hw: OpCost.MissBase must be in [0,1]")
	}
	return nil
}

// RunContext describes the machine conditions an operation runs under.
// The scheduler recomputes these whenever the co-running set changes.
type RunContext struct {
	// BWShare is the fraction of machine bandwidth available to this
	// operation (1 when running alone; divided among co-runners in
	// proportion to demand).
	BWShare float64
	// SMTDepth is the number of hardware threads resident per core on the
	// cores this operation occupies: 1 normally, larger when other
	// operations' thread pools overlap the same cores (unpinned TensorFlow
	// co-running, oversubscription, or running as a hyper-threading
	// guest). SMT sharing slows every compute term — serial section,
	// parallel section and fork-join barriers alike — because all of them
	// execute on shared cores.
	SMTDepth int
	// ComputeScale is a soft throughput multiplier in (0,1] for mild
	// interference, e.g. a wide operation hosting small hyper-threading
	// guests on its second hardware threads. Zero means 1.
	ComputeScale float64
}

// Solo is the context of an operation running alone on the machine.
func Solo() RunContext { return RunContext{BWShare: 1, SMTDepth: 1, ComputeScale: 1} }

// normalize fills zero fields with their solo defaults.
func (ctx RunContext) normalize() RunContext {
	if ctx.BWShare <= 0 || ctx.BWShare > 1 {
		ctx.BWShare = 1
	}
	if ctx.SMTDepth < 1 {
		ctx.SMTDepth = 1
	}
	if ctx.ComputeScale <= 0 || ctx.ComputeScale > 1 {
		ctx.ComputeScale = 1
	}
	return ctx
}

// smtEff returns the per-thread throughput factor for an operation whose p
// threads are laid out on the machine with the given external SMT depth.
// Thread counts beyond the physical core count fold onto hyper-threads of
// the operation's own cores; counts beyond all hardware threads are
// oversubscribed and pay a context-switching penalty on top.
func (m *Machine) smtEff(p, smtDepth int) float64 {
	perCore := smtDepth
	if p > m.Cores {
		// The operation itself stacks threads onto hyper-threads.
		own := (p + m.Cores - 1) / m.Cores
		if own > perCore {
			perCore = own
		}
	}
	switch {
	case perCore <= 1:
		return 1
	case perCore == 2:
		return m.HT2Eff
	case perCore <= m.HTPerCore:
		return m.HT4Eff
	default:
		// Oversubscribed: beyond hardware threads the OS time-slices, which
		// costs far more than SMT sharing.
		over := float64(perCore) / float64(m.HTPerCore)
		return m.HT4Eff / (1 + m.OversubMul*(over-1))
	}
}

// missFraction models the LLC (tile L2) miss fraction for the operation's
// working set under the given placement. Per-tile demand beyond the 1 MiB
// L2 turns reuse into misses; cache-sharing placement concentrates two
// threads' demand on one tile, discounted by the fraction of data the
// tile-mates share.
func (m *Machine) missFraction(c OpCost, p int, pl Placement) float64 {
	if c.WorkingSetBytes <= 0 {
		return c.MissBase
	}
	tiles := pl.TilesUsed(m, p)
	if tiles == 0 {
		return 1
	}
	perThread := c.WorkingSetBytes / float64(p)
	var demand float64
	if pl.ThreadsPerTile(m, p) >= 2 {
		demand = perThread * (2 - c.ShareFrac)
	} else {
		demand = perThread
	}
	overflow := 0.0
	if demand > m.L2PerTileBytes {
		overflow = 1 - m.L2PerTileBytes/demand
	}
	return c.MissBase + (1-c.MissBase)*overflow
}

// memTraffic returns the post-cache main-memory traffic in bytes. When two
// threads share a tile, the fraction of data they share is fetched once per
// tile instead of once per thread, cutting traffic by up to half — this is
// why the paper pins threads with consecutive IDs (which work on
// neighbouring, data-sharing iterations) onto the same tile.
func (m *Machine) memTraffic(c OpCost, p int, pl Placement) float64 {
	bytes := c.Bytes
	if pl.ThreadsPerTile(m, p) >= 2 {
		bytes *= 1 - c.ShareFrac/2
	}
	return bytes * m.missFraction(c, p, pl)
}

// OpPrice is the context-free part of an operation's execution time: the
// terms of the model that depend only on the cost, the thread count and
// the placement, computed once by Machine.Price. The execution engine
// prices each launched operation once and, whenever its co-runners
// change, only rescales the price for the new context with Time.
//
// The model is
//
//	T(p) = serial + parallel + memory + spawn·p
//
// where the parallel term decays with synchronization overhead and SMT
// efficiency, and the memory term is the post-cache traffic divided by the
// operation's bandwidth share. The serial + A/p + s·p skeleton produces the
// convex curves with interior optima of the paper's Figure 1; the memory
// and cache terms produce the input-size and placement sensitivity of its
// Table II. Every term but the SMT efficiency, the compute scale and the
// bandwidth share is context-free and lives in the price.
type OpPrice struct {
	p        int     // useful thread count; <= 0 prices +Inf
	serial   float64 // SerialFrac·WorkNs
	parallel float64 // (1−SerialFrac)·WorkNs
	peff     float64 // p·eff(p), the synchronization-decayed thread count
	spawn    float64 // SpawnNs·p
	traffic  float64 // post-cache main-memory traffic, bytes
	bw       float64 // Bandwidth(streams); 0 when the op moves no bytes
}

// Price returns the context-free terms of an operation with cost c run
// with p threads under placement pl on m. The thread count is subject to
// the kernel library's useful-threads cap (GrainNs).
func (m *Machine) Price(c OpCost, p int, pl Placement) OpPrice {
	p = m.usefulThreads(c, p)
	pr := OpPrice{p: p, traffic: m.memTraffic(c, p, pl)}
	if p <= 0 {
		return pr
	}
	pr.serial = c.SerialFrac * c.WorkNs
	pr.parallel = (1 - c.SerialFrac) * c.WorkNs
	eff := 1 / (1 + m.SyncAlpha*math.Log(float64(p)))
	pr.peff = float64(p) * eff
	pr.spawn = c.SpawnNs * float64(p)
	if c.Bytes > 0 {
		streams := p
		if streams > m.LogicalCPUs() {
			streams = m.LogicalCPUs()
		}
		pr.bw = m.Bandwidth(streams)
	}
	return pr
}

// Traffic reports the priced operation's post-cache main-memory traffic in
// bytes; it equals MemTraffic for the same cost, threads and placement.
func (pr OpPrice) Traffic() float64 { return pr.traffic }

// Time returns the execution time, in nanoseconds, of the priced operation
// in context ctx on m, the machine that priced it: it rescales the price's
// compute terms by the SMT efficiency and the compute scale, and its memory
// traffic by the bandwidth share. A price for p <= 0 threads takes +Inf.
func (pr OpPrice) Time(m *Machine, ctx RunContext) float64 {
	if pr.p <= 0 {
		return math.Inf(1)
	}
	ctx = ctx.normalize()

	// SMT sharing and soft interference slow every compute term: the
	// serial section and the fork-join barriers run on the same shared
	// cores as the parallel body.
	scale := m.smtEff(pr.p, ctx.SMTDepth) * ctx.ComputeScale

	var memory float64
	if bw := pr.bw * ctx.BWShare; bw > 0 {
		memory = pr.traffic / bw
	}
	return pr.serial/scale + pr.parallel/(pr.peff*scale) + memory + pr.spawn/scale
}

// OpTime returns the execution time, in nanoseconds, of an operation with
// cost c run with p threads under placement pl in context ctx (see OpPrice
// for the model).
func (m *Machine) OpTime(c OpCost, p int, pl Placement, ctx RunContext) float64 {
	return m.Price(c, p, pl).Time(m, ctx)
}

// usefulThreads caps the thread count at the kernel library's internal
// work-partitioning limit: no more threads than the parallel work can fill
// at GrainNs per thread.
func (m *Machine) usefulThreads(c OpCost, p int) int {
	if m.GrainNs <= 0 {
		return p
	}
	max := int(math.Ceil((1 - c.SerialFrac) * c.WorkNs / m.GrainNs))
	if max < 1 {
		max = 1
	}
	if p > max {
		return max
	}
	return p
}

// MemTraffic exposes the post-cache main-memory traffic, in bytes, for
// bandwidth-contention accounting by the execution engine. The thread
// count is subject to the same useful-threads cap as OpTime.
func (m *Machine) MemTraffic(c OpCost, p int, pl Placement) float64 {
	return m.memTraffic(c, m.usefulThreads(c, p), pl)
}

// SoloTime is shorthand for OpTime with a solo context.
func (m *Machine) SoloTime(c OpCost, p int, pl Placement) float64 {
	return m.OpTime(c, p, pl, Solo())
}

// BestPlacement returns the faster of the two placements for the given
// thread count, with its time.
func (m *Machine) BestPlacement(c OpCost, p int, ctx RunContext) (Placement, float64) {
	ts := m.OpTime(c, p, Spread, ctx)
	th := m.OpTime(c, p, Shared, ctx)
	if th < ts {
		return Shared, th
	}
	return Spread, ts
}

// BestThreads sweeps every thread count in [1, maxThreads] over both
// placements and returns the fastest configuration. It is the ground truth
// the performance models are judged against.
func (m *Machine) BestThreads(c OpCost, maxThreads int, ctx RunContext) (p int, pl Placement, t float64) {
	t = math.Inf(1)
	for q := 1; q <= maxThreads; q++ {
		for _, cand := range Placements() {
			if cand == Shared && q%2 != 0 {
				continue // the paper only uses even counts for shared placement
			}
			if d := m.OpTime(c, q, cand, ctx); d < t {
				p, pl, t = q, cand, d
			}
		}
	}
	return p, pl, t
}
