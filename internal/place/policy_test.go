package place

import "fmt"

// The placement policies' reference form: a materialized per-node snapshot
// (NodeView) ranked by each policy's Pick. The engine never builds it — its
// fused scans (fused.go) fold node state straight into the reduction — so
// this form exists as the oracle the fused scans are checked against.

// NodeView is the read-only snapshot of one node a placement policy ranks.
// Heterogeneous fleets surface per-hardware quantities: the same arriving
// job carries a different JobWorkNs on a CPU view than on a GPU view, and
// capacity counts cores on one and streams on the other.
type NodeView struct {
	// Index is the node's cluster index; Kind its hardware kind (KindCPU
	// or KindGPU); Capacity the maximum jobs one gang wave may co-run
	// (physical cores on a CPU node, streams on a GPU node).
	Index    int
	Kind     string
	Capacity int
	// FreeNs is when the node's in-flight co-run wave completes; a value
	// at or before the arrival time means the node is idle.
	FreeNs float64
	// Resident counts the jobs in the in-flight wave (0 when idle);
	// Queued counts jobs staged or staging behind it.
	Resident int
	Queued   int
	// QueuedWorkNs is the predicted solo work of the queued jobs on THIS
	// node's hardware; JobWorkNs the arriving job's predicted solo work
	// here. Both come from the node's NodeRuntime (perfmodel hill-climb
	// predictions on CPU nodes, the occupancy model on GPU nodes), so the
	// model-aware policy genuinely compares node × hardware.
	QueuedWorkNs float64
	JobWorkNs    float64
	// Alpha is the hardware's per-co-runner finish-time inflation (mesh
	// interference on CPU, stream interference on GPU).
	Alpha float64
	// TransferNs delays the job's start here: 0 for an arrival, and for a
	// checkpoint restart the state transfer plus re-staging on every node
	// but the one the job was cut from.
	TransferNs float64
}

// Load is the node's total job commitment: in-flight plus queued.
func (v NodeView) Load() int { return v.Resident + v.Queued }

// Policy picks a node for every arriving job. Implementations must be
// deterministic — ties always break on the lower node index.
type Policy interface {
	// Pick returns the node index in [0, len(nodes)) for a job arriving
	// at nowNs. The nodes slice is ordered by index and carries the job's
	// predicted work per node hardware (NodeView.JobWorkNs).
	Pick(job JobSpec, nowNs float64, nodes []NodeView) int
}

// BinPack consolidates: it places each job on the most-loaded node that
// still has spare wave capacity (every co-run job needs one core or one
// stream, so a node "fits" while its job count is below its capacity),
// draining the cluster onto as few nodes as possible. When every node is at
// capacity it falls back to the least-loaded node. It is hardware-blind:
// node index order decides ties, whatever the hardware.
type BinPack struct{}

// Pick implements Policy.
func (BinPack) Pick(_ JobSpec, _ float64, nodes []NodeView) int {
	best := -1
	for _, v := range nodes {
		if v.Load() >= v.Capacity {
			continue
		}
		if best < 0 || v.Load() > nodes[best].Load() {
			best = v.Index
		}
	}
	if best < 0 {
		return leastLoaded(nodes)
	}
	return best
}

// Spread balances: every job goes to the node with the fewest committed
// jobs, ties on the lower index — the classic least-loaded heuristic that
// ignores what the jobs are and what hardware the nodes carry.
type Spread struct{}

// Pick implements Policy.
func (Spread) Pick(_ JobSpec, _ float64, nodes []NodeView) int {
	return leastLoaded(nodes)
}

// ModelAware ranks node × hardware by the arriving job's predicted finish
// time under the engine's gang-wave execution model: the job joins the
// node's next wave once the in-flight wave completes (or now, if idle) and
// co-runs with everything committed there, so its finish is its own work
// priced on that node's hardware, inflated by the hardware's per-co-runner
// interference factor — plus a drain term when the queue overflows one
// wave. The work terms come from perfmodel hill-climb predictions on CPU
// nodes and the occupancy/stream model on GPU nodes, so a launch-bound
// LSTM routes to the manycore node it scales best on while a
// convolution-heavy DCGAN routes to the GPU; and a job is not penalized
// for a node whose in-flight wave frees soon the way it is for one pinned
// behind a long ResNet-50 wave. Nodes already at wave capacity are
// considered only when every node is full.
type ModelAware struct{}

// estimate is the predicted finish time of the arriving job on one node:
// next-wave start (no earlier than now plus the node's TransferNs), plus the job's own work on that hardware inflated by
// the interference of the jobs it would co-run with, plus — only when the
// commitment overflows one gang wave — the queued work draining at
// capacity-wide throughput ahead of it.
func (ModelAware) estimate(v NodeView, nowNs float64) float64 {
	start := v.FreeNs
	if ready := nowNs + v.TransferNs; start < ready {
		start = ready
	}
	co := v.Load()
	if co > v.Capacity-1 {
		co = v.Capacity - 1
	}
	est := start + v.JobWorkNs*(1+v.Alpha*float64(co))
	if v.Load() >= v.Capacity {
		est += v.QueuedWorkNs / float64(v.Capacity)
	}
	return est
}

// Pick implements Policy.
func (p ModelAware) Pick(_ JobSpec, nowNs float64, nodes []NodeView) int {
	best, bestEst := -1, 0.0
	full, fullEst := -1, 0.0
	for _, v := range nodes {
		est := p.estimate(v, nowNs)
		if v.Load() >= v.Capacity {
			if full < 0 || est < fullEst {
				full, fullEst = v.Index, est
			}
			continue
		}
		if best < 0 || est < bestEst {
			best, bestEst = v.Index, est
		}
	}
	if best < 0 {
		return full
	}
	return best
}

// leastLoaded is the shared min-commitment tie-break: fewest jobs, then
// lowest index.
func leastLoaded(nodes []NodeView) int {
	best := 0
	for _, v := range nodes[1:] {
		if v.Load() < nodes[best].Load() {
			best = v.Index
		}
	}
	return best
}

// referencePolicy resolves a built-in policy name to its reference
// implementation.
func referencePolicy(name string) Policy {
	switch name {
	case policyBinPack:
		return BinPack{}
	case policySpread:
		return Spread{}
	case policyModelAware:
		return ModelAware{}
	}
	panic(fmt.Sprintf("no reference policy %q", name))
}

// referenceViews snapshots every node of e for a placement decision on
// admitted job ji at nowNs: the per-node state fusedPick reads, as the
// reference policies rank it.
func referenceViews(e *Engine, ji int, nowNs float64) []NodeView {
	work := e.jobWorkPerRuntime(ji)
	vs := make([]NodeView, len(e.nodes))
	for i, ns := range e.nodes {
		k := e.rtIdx[i]
		v := &vs[i]
		v.Index = i
		v.Kind = e.uniqueRts[k].Kind()
		v.Capacity = e.rtCap[k]
		if w := ns.wave; w != nil {
			v.FreeNs = w.drainNs
			if v.FreeNs > nowNs {
				v.Resident = len(w.active)
			}
		} else {
			v.FreeNs = ns.freeNs
		}
		v.Queued = len(ns.queue)
		v.QueuedWorkNs = ns.queuedWorkNs
		v.JobWorkNs = work[k]
		v.Alpha = e.rtAlpha[k]
	}
	return vs
}

// restartViews snapshots every node of e for restarting checkpointed job
// ji, cut from node src at nowNs: referenceViews priced at the job's
// remaining steps, with the checkpoint-state transfer plus re-staging on
// every node but src.
func restartViews(e *Engine, ji, src int, nowNs float64) []NodeView {
	vs := referenceViews(e, ji, nowNs)
	mi := e.info(e.job(ji).workKey)
	for i := range vs {
		if i != src {
			vs[i].TransferNs = e.ic.TransferNs(mi.paramBytes) + mi.xferNs
		}
	}
	return vs
}
