package place

// Fused placement scan.
//
// For the built-in policies a placement decision is an argmin reduction
// over the fleet: each node contributes a (class, score) key and ties
// always break on the lower node index. fusedPick folds the per-node view
// straight into that reduction — no NodeView is materialized and the
// arriving job's work is resolved once per distinct runtime — and returns
// exactly the node Views → Policy.Pick would.

// pickAcc is the running state of a placement reduction: the best
// preferred-class candidate and the best fallback candidate seen so far,
// with their comparison keys. Updates use strict key comparison after a
// first-candidate test, so the lowest index wins ties.
type pickAcc struct {
	best    int // preferred-class candidate, -1 none
	bestKey float64
	fall    int // fallback candidate, -1 none
	fallKey float64
}

// nodeLoadFree reads node i's committed load and free horizon the way a
// NodeView reports them: load counts the staged queue plus — only while
// the in-flight wave drains past nowNs — its resident jobs.
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

// scanModelAware folds every node into acc under the model-aware
// policy: preferred class is the non-full nodes, the key is the arriving
// job's predicted finish time there (ModelAware.estimate, replicated
// operation for operation so the fused scan is float-identical to
// Views → Pick).
func (e *Engine) scanModelAware(nowNs float64, work []float64, acc *pickAcc) {
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
		}
	}
}

// scanBinPack folds every node into acc under the binpack policy:
// preferred class is the non-full nodes keyed by negated load (most
// loaded wins), fallback is every node keyed by load (least loaded wins).
func (e *Engine) scanBinPack(nowNs float64, acc *pickAcc) {
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
		}
	}
}

// scanSpread folds every node into acc under the spread policy: no
// preferred class, fallback is every node keyed by load (least loaded
// wins, ties on the lower index — exactly leastLoaded).
func (e *Engine) scanSpread(nowNs float64, acc *pickAcc) {
	for i := range e.nodes {
		load, _ := e.nodeLoadFree(i, nowNs)
		if lf := float64(load); acc.fall < 0 || lf < acc.fallKey {
			acc.fall, acc.fallKey = i, lf
		}
	}
}

// fusedPick picks job ji's node at nowNs with the scan and the policy
// reduction fused — no NodeView materialized, one work-cache resolution
// per distinct runtime. ok is false when the policy is not one of the
// built-ins; the caller falls back to the materialized Views → Pick path.
func (e *Engine) fusedPick(ji int, nowNs float64) (node int, ok bool) {
	acc := pickAcc{best: -1, fall: -1}
	switch e.pol.(type) {
	case ModelAware:
		e.scanModelAware(nowNs, e.jobWorkPerRuntime(ji), &acc)
	case BinPack:
		e.scanBinPack(nowNs, &acc)
	case Spread:
		e.scanSpread(nowNs, &acc)
	default:
		return 0, false
	}
	if acc.best >= 0 {
		return acc.best, true
	}
	return acc.fall, true
}
