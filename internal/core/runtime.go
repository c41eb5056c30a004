package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"opsched/internal/exec"
	"opsched/internal/graph"
	"opsched/internal/hw"
	"opsched/internal/op"
	"opsched/internal/perfmodel"
)

// Runtime is the concurrency-control and operation-scheduling runtime. It
// implements exec.Scheduler; construct with New, run the profiling steps
// with Profile, then hand it to exec.Run. A profiled Runtime is read-only,
// so several executions may share it.
type Runtime struct {
	cfg     Config
	machine *hw.Machine

	store  *perfmodel.Store
	byKind map[op.Kind]*perfmodel.Profile
	graph  *graph.Graph

	// plan holds what the strategies read about each node of graph,
	// indexed by NodeID. Profiles are frozen after Profile, so every
	// per-operation fact — thread choice, candidate list, predicted
	// times — is derived once instead of at every scheduling event: the
	// paper's overhead note, "some decisions based on Strategy 3 to co-run
	// operations can be reused without repeatedly running Strategy 3".
	// Fit and throughput checks remain per scheduling event.
	plan []nodePlan
	// prices holds the launch price of every configuration a plan can
	// emit, so the op-event loop prices no launch of its own.
	prices *exec.PriceTable
}

// nodePlan is one node's scheduling facts, derived from the frozen
// profile store by buildTables.
type nodePlan struct {
	// tunable reports whether the runtime may change the operation's
	// intra-op parallelism.
	tunable bool
	// cands is the node's class's prepared Strategy-3 candidate list (top-3
	// thread counts with instance-predicted times, conflict rule
	// pre-applied), shared by every instance of the class; nil when
	// Strategy 3 cannot use it.
	cands []perfmodel.Config
	// base is the baseline configuration with its predicted time.
	base perfmodel.Config
	// chosen is the Strategy-1/2 configuration (chosenConfig).
	chosen perfmodel.Config
	// serialNs is the predicted time on one thread: Strategy 4's size rank.
	serialNs float64
	// htThreads is the width the node runs at as a hyper-threading guest,
	// and guestNs its predicted time there on the second hardware thread.
	htThreads int
	guestNs   float64
}

// tables is the read-only state a runtime derives from its frozen profile
// store: the Strategy-2 per-kind profiles, the per-node plans and their
// launch prices. It is built once per (store, tablesKey) and shared by
// every runtime profiled on an equal (machine, graph, interval) triple;
// an equal graph signature means equal operations at every NodeID, so the
// plans fit every such graph.
type tables struct {
	byKind map[op.Kind]*perfmodel.Profile
	plan   []nodePlan
	prices *exec.PriceTable
}

// tablesKey holds the configuration fields the tables depend on.
type tablesKey struct {
	strategy1  bool
	strategy2  bool
	candidates bool
}

func (rt *Runtime) tablesKey() tablesKey {
	return tablesKey{
		strategy1:  rt.cfg.Strategy1,
		strategy2:  rt.cfg.Strategy2,
		candidates: rt.cfg.Strategy3 && (rt.cfg.Strategy1 || rt.cfg.Strategy2),
	}
}

// New returns a runtime for machine m (nil means hw.NewKNL()).
func New(m *hw.Machine, cfg Config) *Runtime {
	if m == nil {
		m = hw.NewKNL()
	}
	return &Runtime{cfg: cfg, machine: m}
}

// Store exposes the hill-climbing profiles gathered by Profile.
func (rt *Runtime) Store() *perfmodel.Store { return rt.store }

// Profile runs the profiling steps for graph g: a hill-climbing search per
// distinct operation class (Strategy 1) and the per-kind largest-instance
// reduction (Strategy 2). The paper folds this into the first few training
// steps; the step budget is Store().StepsUsed(). Profiles come from the
// process-wide perfmodel cache, so repeated runs over the same (machine,
// graph) pair — the experiment sweep's common case — skip the search, and
// share the tables derived from the store; the runtime only ever reads
// them after this point. The runtime then schedules g, or a graph with
// g's signature, only.
func (rt *Runtime) Profile(g *graph.Graph) error {
	if err := g.Validate(); err != nil {
		return err
	}
	rt.graph = g
	rt.store = perfmodel.CachedProfileGraph(rt.machine, g, ProfileInterval)
	t := rt.store.Derive(rt.tablesKey(), func() any { return rt.buildTables(g) }).(*tables)
	rt.byKind, rt.plan, rt.prices = t.byKind, t.plan, t.prices
	return nil
}

// buildTables derives the tables for rt's store and configuration: the
// per-kind largest-instance profiles, every node's plan and the price of
// every configuration the plan can emit. Candidate lists are prepared once
// per tunable operation class, and only when Strategy 3 can run
// (untunable operations only ever run at the baseline width).
func (rt *Runtime) buildTables(g *graph.Graph) *tables {
	rt.byKind = perfmodel.LargestInstanceProfiles(g, rt.store)
	t := &tables{byKind: rt.byKind, plan: make([]nodePlan, g.Len())}
	withCands := rt.tablesKey().candidates
	cands := make(map[string][]perfmodel.Config)
	for _, n := range g.Nodes() {
		o := n.Op
		p := &t.plan[n.ID]
		p.tunable = rt.tunable(o)
		p.base = rt.baseline()
		p.base.TimeNs = rt.predictTime(o, p.base.Threads, p.base.Placement)
		p.chosen = rt.chosenConfig(o)
		p.serialNs = rt.predictTime(o, 1, hw.Spread)
		p.htThreads = min(p.chosen.Threads, rt.machine.Cores)
		p.guestNs = rt.predictTime(o, p.htThreads, p.chosen.Placement) / rt.machine.HT2Eff
		if withCands && p.tunable {
			sig := o.Signature()
			c, ok := cands[sig]
			if !ok {
				c = rt.prepareCandidates(o)
				cands[sig] = c
			}
			p.cands = c
		}
	}
	// The configurations scheduleSerial, scheduleCoRun and
	// scheduleHyperThreading launch a node at. base is not among them:
	// corunCandidate returns it only where chosenConfig is base too.
	var buf []exec.Launch
	t.prices = exec.NewPriceTable(rt.machine, g, func(id graph.NodeID) []exec.Launch {
		p := &t.plan[id]
		buf = append(buf[:0],
			exec.Launch{Threads: p.chosen.Threads, Placement: p.chosen.Placement},
			exec.Launch{Threads: p.htThreads, Placement: p.chosen.Placement})
		for _, c := range p.cands {
			buf = append(buf, exec.Launch{Threads: c.Threads, Placement: c.Placement})
		}
		return buf
	})
	return t
}

// Prices implements exec.Pricer: the launch prices of the profiled graph
// on the runtime's machine, nil before Profile.
func (rt *Runtime) Prices() *exec.PriceTable { return rt.prices }

// planFor returns the node plans for scheduling g. It panics unless g is
// the graph the runtime was profiled on or one with its signature: the
// plans are indexed by NodeID, so any other graph would read another
// graph's facts or index out of range.
func (rt *Runtime) planFor(g *graph.Graph) []nodePlan {
	if g != rt.graph {
		if rt.graph == nil {
			panic("core: " + rt.Name() + " scheduled before Profile")
		}
		if g.Signature() != rt.graph.Signature() {
			panic(fmt.Sprintf("core: %s was profiled on graph %s but asked to schedule graph %s",
				rt.Name(), describe(rt.graph), describe(g)))
		}
	}
	return rt.plan
}

// describe names a graph in planFor's panic message.
func describe(g *graph.Graph) string {
	return fmt.Sprintf("%q (%d ops, signature %s)", g.Name, g.Len(), g.Signature())
}

// Name implements exec.Scheduler. Every simulated job renders it, so it
// avoids fmt for the reason hw.Machine.String does.
func (rt *Runtime) Name() string {
	return "opsched(s1=" + strconv.FormatBool(rt.cfg.Strategy1) +
		",s2=" + strconv.FormatBool(rt.cfg.Strategy2) +
		",s3=" + strconv.FormatBool(rt.cfg.Strategy3) +
		",s4=" + strconv.FormatBool(rt.cfg.Strategy4) +
		",x=" + strconv.Itoa(ProfileInterval) + ")"
}

// tunable reports whether the runtime may change the operation's intra-op
// parallelism (the paper is restricted to MKL-DNN kernels).
func (rt *Runtime) tunable(o *op.Op) bool {
	return o.Kind.IsMKL()
}

// baseline is the recommended full-width configuration used for untunable
// operations and disabled strategies.
func (rt *Runtime) baseline() perfmodel.Config {
	return perfmodel.Config{Threads: rt.machine.Cores, Placement: hw.Shared}
}

// profileFor returns the profile that governs an operation: the per-kind
// largest-instance profile under Strategy 2, the per-class profile under
// plain Strategy 1.
func (rt *Runtime) profileFor(o *op.Op) (*perfmodel.Profile, bool) {
	if rt.cfg.Strategy2 {
		if p, ok := rt.byKind[o.Kind]; ok {
			return p, true
		}
	}
	if rt.store == nil {
		return nil, false
	}
	return rt.store.Get(o.Signature())
}

// chosenConfig returns the Strategy-1/2 thread configuration for an
// operation, with its predicted execution time filled in.
func (rt *Runtime) chosenConfig(o *op.Op) perfmodel.Config {
	base := rt.baseline()
	if !rt.cfg.Strategy1 && !rt.cfg.Strategy2 {
		return base
	}
	if !rt.tunable(o) {
		return base
	}
	pr, ok := rt.profileFor(o)
	if !ok {
		return base
	}
	best := pr.Best
	// Predict the time of this instance's class at the chosen count (under
	// Strategy 2 the count comes from the largest instance but the time
	// bound must be this instance's).
	if inst, ok := rt.store.Get(o.Signature()); ok {
		best.TimeNs = inst.Predict(best.Threads, best.Placement)
	}
	return best
}

// predictTime estimates this operation's execution time at an arbitrary
// configuration.
func (rt *Runtime) predictTime(o *op.Op, threads int, pl hw.Placement) float64 {
	if inst, ok := rt.store.Get(o.Signature()); ok {
		return inst.Predict(threads, pl)
	}
	return math.Inf(1)
}

// Schedule implements exec.Scheduler. It reads only the per-node plans
// and st, and allocates nothing once dst has room.
func (rt *Runtime) Schedule(st *exec.State, dst []exec.Decision) []exec.Decision {
	plan := rt.planFor(st.Graph)
	if len(st.Ready) == 0 {
		return dst
	}
	if !rt.cfg.Strategy3 {
		return rt.scheduleSerial(st, plan, dst)
	}
	n0 := len(dst)
	dst = rt.scheduleCoRun(st, plan, dst)
	if rt.cfg.Strategy4 {
		dst = rt.scheduleHyperThreading(st, plan, dst, n0)
	}
	return dst
}

// scheduleSerial is the inter-op-1 policy of Strategies 1-2: one operation
// at a time, each at its tuned thread count.
func (rt *Runtime) scheduleSerial(st *exec.State, plan []nodePlan, dst []exec.Decision) []exec.Decision {
	if len(st.Running) > 0 {
		return dst
	}
	node := st.Ready[0]
	cfg := plan[node].chosen
	return append(dst, exec.Decision{Node: node, Threads: cfg.Threads, Placement: cfg.Placement, Pinned: true})
}

// scheduleCoRun implements Strategy 3. Whenever cores idle, every ready
// operation's top candidate configurations are checked against the idle
// budget and the system-throughput constraint; the fitting candidate with
// the fewest threads wins, releasing cores for more co-runners. If nothing
// fits and the machine is empty, the most time-consuming ready operation
// runs at its tuned width.
func (rt *Runtime) scheduleCoRun(st *exec.State, plan []nodePlan, dst []exec.Decision) []exec.Decision {
	idle := st.IdleCores()
	maxRemaining := st.MaxRemainingNs()
	running := len(st.Running)

	n0 := len(dst)
	for _, node := range st.Ready {
		if idle <= 0 {
			break
		}
		cand, ok := rt.corunCandidate(&plan[node], idle, maxRemaining, running+len(dst)-n0 > 0)
		if !ok {
			continue
		}
		dst = append(dst, exec.Decision{Node: node, Threads: cand.Threads, Placement: cand.Placement, Pinned: true})
		idle -= cand.Placement.CoresUsed(rt.machine, cand.Threads)
		if cand.TimeNs > maxRemaining {
			maxRemaining = cand.TimeNs
		}
	}

	// Nothing fits and nothing is running: fall back to the most
	// time-consuming ready operation so the machine never idles.
	if len(dst) == n0 && running == 0 {
		bestNode := st.Ready[0]
		bestTime := -1.0
		for _, node := range st.Ready {
			if t := plan[node].chosen.TimeNs; t > bestTime {
				bestTime = t
				bestNode = node
			}
		}
		cfg := plan[bestNode].chosen
		dst = append(dst, exec.Decision{Node: bestNode, Threads: cfg.Threads, Placement: cfg.Placement, Pinned: true})
	}
	return dst
}

// corunCandidate picks, for one ready operation, the Strategy-3 candidate
// that fits the idle cores without hurting throughput. constrained marks
// whether the throughput bound applies (it does not when the machine is
// empty).
func (rt *Runtime) corunCandidate(p *nodePlan, idle int, maxRemaining float64, constrained bool) (perfmodel.Config, bool) {
	if !p.tunable || (!rt.cfg.Strategy1 && !rt.cfg.Strategy2) {
		// Untunable operations can only run at the baseline width.
		base := p.base
		if base.Placement.CoresUsed(rt.machine, base.Threads) > idle {
			return perfmodel.Config{}, false
		}
		if constrained && base.TimeNs > maxRemaining {
			return perfmodel.Config{}, false
		}
		return base, true
	}

	for _, c := range p.cands {
		if c.Placement.CoresUsed(rt.machine, c.Threads) > idle {
			continue
		}
		if constrained && c.TimeNs > maxRemaining {
			continue
		}
		return c, true
	}
	return perfmodel.Config{}, false
}

// prepareCandidates builds the Strategy-3 candidate list of one operation
// class: the governing profile's top-3 thread counts with this instance's
// predicted times, conflict rule applied, fewest threads first.
func (rt *Runtime) prepareCandidates(o *op.Op) []perfmodel.Config {
	inst, ok := rt.store.Get(o.Signature())
	if !ok {
		return nil
	}
	// Candidates come from the governing profile — under Strategy 2 that
	// is the kind's largest-instance profile, so the top-3 straddle the
	// Strategy-2 choice (the paper's example candidates 16/18/20 straddle
	// its tuned width). Times are re-predicted for this instance's class.
	gov, ok := rt.profileFor(o)
	if !ok {
		gov = inst
	}
	cands := gov.TopConfigs(rt.machine, candidates)
	for i := range cands {
		cands[i].TimeNs = inst.Predict(cands[i].Threads, cands[i].Placement)
	}
	// Strategy-2/3 conflict rule: a candidate far from the Strategy-2
	// choice would thrash the operation's concurrency; it is replaced by
	// the Strategy-2 configuration.
	if rt.cfg.Strategy2 {
		s2 := rt.chosenConfig(o)
		for i := range cands {
			if abs(cands[i].Threads-s2.Threads) > maxThreadDelta {
				cands[i] = s2
			}
		}
	}
	// Deterministic order: fewest threads first among the top-3.
	sort.Slice(cands, func(i, j int) bool { return cands[i].Threads < cands[j].Threads })
	return cands
}

// scheduleHyperThreading implements Strategy 4: when a running operation
// occupies every physical core, the smallest ready operations — by serial
// execution time — co-run on the second hardware thread of those cores.
// dst[n0:] holds the decisions this event already made; those nodes are
// taken.
func (rt *Runtime) scheduleHyperThreading(st *exec.State, plan []nodePlan, dst []exec.Decision, n0 int) []exec.Decision {
	// A host is "full width" when it occupies (nearly) every physical
	// core — Strategy 2 often tunes scalable operations to 60-66 threads
	// rather than exactly 68, and those leave no room for Strategy 3
	// either. Only operations already in flight host guests: their
	// remaining time bounds how long a guest may run.
	wide := (rt.machine.Cores * 85) / 100
	hostRemaining := 0.0
	for _, r := range st.Running {
		if !r.HT && r.Placement.CoresUsed(rt.machine, r.Threads) >= wide {
			if rem := r.RemainingNs(); rem > hostRemaining {
				hostRemaining = rem
			}
		}
	}
	if hostRemaining <= 0 {
		return dst
	}

	guests := 0
	for _, r := range st.Running {
		if r.HT {
			guests++
		}
	}
	budget := maxHTGuests - guests
	if budget <= 0 {
		return dst
	}

	// The budget smallest eligible ready operations by serial execution
	// time (ties to the lower node), kept sorted by insertion. A guest
	// runs on the second hardware thread at roughly half throughput; it
	// must be genuinely small next to the host's remaining time or it
	// would stretch the critical path instead of filling idle cycles (the
	// paper picks the *smallest* ready operations for exactly this reason
	// — gradient-chain convolutions must never ride hyper-threads).
	type small struct {
		node   graph.NodeID
		serial float64
	}
	var buf [4]small
	picks := buf[:0]
	for _, node := range st.Ready {
		p := &plan[node]
		if !p.tunable || p.guestNs > 0.15*hostRemaining || pending(dst[n0:], node) {
			continue
		}
		s := small{node, p.serialNs}
		i := len(picks)
		for i > 0 && (s.serial < picks[i-1].serial || s.serial == picks[i-1].serial && s.node < picks[i-1].node) {
			i--
		}
		if i >= budget {
			continue
		}
		if len(picks) < budget {
			picks = append(picks, small{})
		}
		copy(picks[i+1:], picks[i:len(picks)-1])
		picks[i] = s
	}

	for _, s := range picks {
		p := &plan[s.node]
		dst = append(dst, exec.Decision{Node: s.node, Threads: p.htThreads, Placement: p.chosen.Placement, HT: true, Pinned: true})
	}
	return dst
}

// pending reports whether ds already launches node.
func pending(ds []exec.Decision, node graph.NodeID) bool {
	for _, d := range ds {
		if d.Node == node {
			return true
		}
	}
	return false
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
