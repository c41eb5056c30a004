package place

import (
	"fmt"
	"math"
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
// The floor is min over runtimes k of nowNs + work[k]: a node's start is at
// least nowNs, predicted work, co-runner count and alpha are all
// non-negative, and float rounding is monotone, so no node's est falls
// below its runtime's nowNs + work[k] — and an idle, empty node's est is
// exactly that.
func (e *Engine) scanModelAware(nowNs float64, work []float64, acc *pickAcc) {
	floor := math.Inf(1)
	for _, w := range work {
		floor = min(floor, nowNs+w)
	}
	for i := range e.nodes {
		k := e.rtIdx[i]
		capk := e.rtCap[k]
		load, freeNs := e.nodeLoadFree(i, nowNs)
		start := freeNs
		if start < nowNs {
			start = nowNs
		}
		co := load
		if co > capk-1 {
			co = capk - 1
		}
		est := start + work[k]*(1+e.rtAlpha[k]*float64(co))
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
		e.scanModelAware(nowNs, e.jobWorkPerRuntime(ji), &acc)
	case policyBinPack:
		e.scanBinPack(nowNs, &acc)
	case policySpread:
		e.scanSpread(nowNs, &acc)
	}
	if acc.best >= 0 {
		return acc.best
	}
	return acc.fall
}
