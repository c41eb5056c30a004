package place

import (
	"fmt"
	"math"
	"math/bits"
)

// Placement policies.
//
// A placement decision is an argmin reduction over the fleet: each node
// contributes a (class, score) key and ties always break on the lower node
// index, so placements render byte-identical reports at any sweep
// parallelism. fusedPick folds each node's live state straight into that
// reduction — no per-node snapshot is materialized and the arriving job's
// work is resolved once per distinct runtime. policy_test.go keeps the
// policies' reference form — a materialized per-node snapshot each policy
// ranks — which the fused scans are tested against.
//
// Each scan also knows its policy's floor: a lower bound on the key no node
// can go below. Because a candidate is replaced only by a strictly smaller
// key, once the running best reaches the floor no later node can displace
// it, so the scan returns right there with exactly the node a full scan
// would pick. A fleet with idle nodes thus stops at the first idle node it
// reaches; a fleet with none still scans every node.
//
// The model-aware policy finds an arrival's floor node without walking the
// busy nodes ahead of it: the engine keeps, per distinct runtime, a bitset
// of its quiescent nodes (idleIndex), and floorNode reads the floor node
// off it with a find-first-set. It answers only where it can prove the
// scan would stop at that same node, and otherwise leaves the pick to the
// scan (see floorNode).

// The built-in placement policies, spelled as Options.Policy names them.
const (
	policyBinPack    = "binpack"
	policySpread     = "spread"
	policyModelAware = "model-aware"
)

// Policies lists the built-in placement policy names Options.Policy
// accepts.
func Policies() []string {
	return []string{policyBinPack, policySpread, policyModelAware}
}

// checkPolicy rejects a placement policy name that is not a built-in.
func checkPolicy(name string) error {
	for _, p := range Policies() {
		if p == name {
			return nil
		}
	}
	return fmt.Errorf("place: unknown policy %q (have %v)", name, Policies())
}

// pickAcc is the running state of a placement reduction: the best
// preferred-class candidate and the best fallback candidate seen so far,
// with their comparison keys. Updates use strict key comparison after a
// first-candidate test, so the lowest index wins ties — which is what makes
// the floor cutoff exact: a best whose key equals the floor can never be
// replaced, so a scan may stop the moment its best (preferred-class or,
// for spread, fallback) key reaches the policy's floor. The key is compared
// with <=, so a NaN key never stops a scan.
type pickAcc struct {
	best    int // preferred-class candidate, -1 none
	bestKey float64
	fall    int // fallback candidate, -1 none
	fallKey float64
}

// pick is the reduction's result: the preferred-class candidate, else the
// fallback.
func (a *pickAcc) pick() int {
	if a.best >= 0 {
		return a.best
	}
	return a.fall
}

// nodeLoadFree reads node i's committed load and free horizon at nowNs:
// load counts the staged queue plus — only while the in-flight wave drains
// past nowNs — its resident jobs; freeNs is when the node's wave drains
// (or when it went idle), a value at or before nowNs meaning idle.
func (e *Engine) nodeLoadFree(i int, nowNs float64) (load int, freeNs float64) {
	ns := e.nodes[i]
	load = len(ns.queue)
	if w := ns.wave; w != nil {
		freeNs = w.drainNs
		if freeNs > nowNs {
			load += len(w.active)
		}
		return load, freeNs
	}
	return load, ns.freeNs
}

// scanModelAware folds every node into acc under the model-aware policy,
// which ranks node × hardware by the arriving job's predicted finish time
// under the engine's gang-wave execution model. The job joins the node's
// next wave once the in-flight wave drains (or now, if idle) and co-runs
// with everything committed there, so its finish is its own work priced on
// that node's hardware (work, per distinct runtime), inflated by the
// hardware's per-co-runner interference factor — plus, only when the
// commitment overflows one wave, the queued work draining at capacity-wide
// throughput ahead of it. The work terms come from perfmodel hill-climb
// predictions on CPU nodes and the occupancy/stream model on GPU nodes, so
// a launch-bound LSTM routes to the manycore node it scales best on while a
// convolution-heavy DCGAN routes to the GPU. Preferred class is the
// non-full nodes; full nodes are considered only when every node is full.
//
// The same scan picks a checkpointed job's restart node (restartNode):
// work then prices the job's remaining steps, and every node but the
// source src delays the start by delayNs, the checkpoint transfer plus
// re-staging. An arrival passes src -1 and delayNs 0. acc must be empty.
//
// The floor is min over runtimes k of nowNs + work[k]: a node's start is at
// least nowNs (delayNs is non-negative), predicted work, co-runner count
// and alpha are all non-negative, and float rounding is monotone, so no
// node's est falls below its runtime's nowNs + work[k] — and an idle, empty
// node's est is exactly that. An arrival first asks the quiescent-node
// index for the node the scan would stop at (floorNode); a restart, and an
// arrival the index cannot answer, walks the nodes in index order.
func (e *Engine) scanModelAware(nowNs float64, work []float64, src int, delayNs float64, acc *pickAcc) {
	floor := math.Inf(1)
	for _, w := range work {
		floor = min(floor, nowNs+w)
	}
	if src < 0 && delayNs == 0 {
		if n := e.floorNode(nowNs, work, floor); n >= 0 {
			acc.best, acc.bestKey = n, floor
			return
		}
	}
	e.walkModelAware(nowNs, work, src, delayNs, floor, acc)
}

// walkModelAware is scanModelAware's linear scan: every node in index
// order until the running best reaches floor.
func (e *Engine) walkModelAware(nowNs float64, work []float64, src int, delayNs, floor float64, acc *pickAcc) {
	delayed := nowNs + delayNs
	for i := range e.nodes {
		k := e.rtIdx[i]
		capk := e.rtCap[k]
		load, freeNs := e.nodeLoadFree(i, nowNs)
		ready := delayed
		if i == src {
			ready = nowNs
		}
		start := freeNs
		if start < ready {
			start = ready
		}
		co := load
		if co > capk-1 {
			co = capk - 1
		}
		est := finishEst(start, work[k], e.rtAlpha[k], co)
		if load >= capk {
			est += e.nodes[i].queuedWorkNs / float64(capk)
			if acc.fall < 0 || est < acc.fallKey {
				acc.fall, acc.fallKey = i, est
			}
			continue
		}
		if acc.best < 0 || est < acc.bestKey {
			acc.best, acc.bestKey = i, est
			if est <= floor {
				return
			}
		}
	}
}

// finishEst is the model-aware finish estimate of work started at startNs
// beside co co-runners on hardware with interference factor alpha. The
// scan and floorNode's lower bound share it, so both round alike.
func finishEst(startNs, work, alpha float64, co int) float64 {
	return startNs + work*(1+alpha*float64(co))
}

// floorNode returns the node the model-aware scan of an arrival at nowNs
// (no source, no delay) stops at, read off the quiescent-node index: the
// lowest-index quiescent node of a runtime k with nowNs + work[k] == floor.
// It returns -1, leaving the pick to the scan, unless it can prove the scan
// stops at that node:
//
//   - No node event is pending at or before nowNs. Arrive leaves events at
//     exactly the arrival instant pending, and a wave whose round ends by
//     nowNs may have drained: the scan reads it as an empty node, the
//     index as a busy one. Past that guard, every in-flight wave drains
//     after nowNs and holds at least one job.
//   - Every runtime k has a finite, non-negative alpha, and its
//     occupied-node lower bound finishEst(nowNs, work[k], alpha[k], 1) lies
//     strictly above floor. A node that is not quiescent starts at nowNs
//     or later beside at least one co-runner (or is full, a fallback the
//     scan never stops at), and finishEst is monotone in both, so its est
//     is above floor and never NaN: the scan passes it. The bound rules
//     out zero, negative and NaN work, alpha 0, and an alpha or work gap
//     too small to survive rounding; +Inf work only keeps a runtime's
//     nodes off the floor.
//   - The node found is idle by nowNs (freeNs <= nowNs). Empty, it has
//     room (every capacity is at least one), and its est is exactly floor.
//     A quiescent node before it belongs to a runtime whose nowNs + work[k]
//     is above floor, and so is its est.
//
// The scan then passes every node before the one found and stops there.
func (e *Engine) floorNode(nowNs float64, work []float64, floor float64) int {
	if _, t := e.events.top(); t <= nowNs {
		return -1
	}
	n := len(e.nodes)
	for k, w := range work {
		a := e.rtAlpha[k]
		if !(a >= 0 && a <= math.MaxFloat64) || !(finishEst(nowNs, w, a, 1) > floor) {
			return -1
		}
		if nowNs+w == floor {
			n = e.idle.first(k, n)
		}
	}
	if n == len(e.nodes) || e.nodes[n].freeNs > nowNs {
		return -1
	}
	return n
}

// idleIndex is the set of quiescent nodes — no wave in flight, nothing
// staged — as one bitset over node indices per distinct runtime. The
// engine's push keeps it current.
type idleIndex struct {
	words int      // uint64 words per runtime
	bits  []uint64 // runtime k's set is bits[k*words : (k+1)*words]
}

// newIdleIndex returns the index of a fresh fleet, whose nodes are all
// quiescent; rtIdx maps each node to its runtime.
func newIdleIndex(runtimes int, rtIdx []int) idleIndex {
	x := idleIndex{words: (len(rtIdx) + 63) / 64}
	x.bits = make([]uint64, runtimes*x.words)
	for i, k := range rtIdx {
		x.mark(k, i, true)
	}
	return x
}

// mark records whether node i of runtime k is quiescent.
func (x *idleIndex) mark(k, i int, quiescent bool) {
	w := &x.bits[k*x.words+i>>6]
	if quiescent {
		*w |= 1 << (i & 63)
	} else {
		*w &^= 1 << (i & 63)
	}
}

// any reports whether any node is quiescent.
func (x *idleIndex) any() bool {
	for _, w := range x.bits {
		if w != 0 {
			return true
		}
	}
	return false
}

// first returns runtime k's lowest quiescent node below limit, or limit
// when it has none there.
func (x *idleIndex) first(k, limit int) int {
	set := x.bits[k*x.words : (k+1)*x.words]
	for wi, w := range set {
		if wi<<6 >= limit {
			break
		}
		if w != 0 {
			return min(wi<<6+bits.TrailingZeros64(w), limit)
		}
	}
	return limit
}

// scanBinPack folds every node into acc under the binpack policy, which
// consolidates: each job goes to the most-loaded node that still has spare
// wave capacity (every co-run job needs one core or one stream, so a node
// fits while its job count is below its capacity), draining the cluster
// onto as few nodes as possible, and to the least-loaded node when every
// node is full. It is hardware-blind: node index order decides ties.
// Preferred class is the non-full nodes keyed by negated load; fallback is
// every node keyed by load. The floor is −(max capacity − 1): a non-full
// node's load is below its capacity, so its key is at least that.
func (e *Engine) scanBinPack(nowNs float64, acc *pickAcc) {
	maxCap := 0
	for _, c := range e.rtCap {
		maxCap = max(maxCap, c)
	}
	floor := -float64(maxCap - 1)
	for i := range e.nodes {
		load, _ := e.nodeLoadFree(i, nowNs)
		lf := float64(load)
		if acc.fall < 0 || lf < acc.fallKey {
			acc.fall, acc.fallKey = i, lf
		}
		if load >= e.rtCap[e.rtIdx[i]] {
			continue
		}
		if acc.best < 0 || -lf < acc.bestKey {
			acc.best, acc.bestKey = i, -lf
			if -lf <= floor {
				return
			}
		}
	}
}

// scanSpread folds every node into acc under the spread policy, which
// balances: every job goes to the node with the fewest committed jobs, ties
// on the lower index, whatever the jobs are and whatever hardware the nodes
// carry. There is no preferred class; fallback is every node keyed by load,
// and the floor is an empty node.
func (e *Engine) scanSpread(nowNs float64, acc *pickAcc) {
	for i := range e.nodes {
		load, _ := e.nodeLoadFree(i, nowNs)
		if lf := float64(load); acc.fall < 0 || lf < acc.fallKey {
			acc.fall, acc.fallKey = i, lf
			if load == 0 {
				return
			}
		}
	}
}

// fusedPick picks job ji's node at nowNs under the engine's policy, with
// the scan and the policy reduction fused. It returns -1 only for a policy
// name checkPolicy would reject, which place's node-range check reports.
func (e *Engine) fusedPick(ji int, nowNs float64) int {
	acc := pickAcc{best: -1, fall: -1}
	switch e.policy {
	case policyModelAware:
		e.scanModelAware(nowNs, e.jobWorkPerRuntime(ji), -1, 0, &acc)
	case policyBinPack:
		e.scanBinPack(nowNs, &acc)
	case policySpread:
		e.scanSpread(nowNs, &acc)
	}
	return acc.pick()
}
