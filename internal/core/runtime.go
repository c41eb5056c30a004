package core

import (
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
// with Profile, then hand it to exec.Run.
type Runtime struct {
	cfg     Config
	machine *hw.Machine

	store  *perfmodel.Store
	byKind map[op.Kind]*perfmodel.Profile
	graph  *graph.Graph

	// cands holds each operation class's prepared Strategy-3 candidate
	// list (top-k thread counts with instance-predicted times, conflict
	// rule pre-applied). Profiles are frozen after Profile, so the list
	// never changes — the paper's overhead note: "some decisions based on
	// Strategy 3 to co-run operations can be reused without repeatedly
	// running Strategy 3". Fit and throughput checks remain per
	// scheduling event.
	cands map[string][]perfmodel.Config
}

// tables is the read-only state a runtime derives from its frozen profile
// store: the Strategy-2 per-kind profiles and the Strategy-3 candidate
// lists. It is built once per (store, tablesKey) and shared by every
// runtime profiled on an equal (machine, graph, interval) triple.
type tables struct {
	byKind map[op.Kind]*perfmodel.Profile
	cands  map[string][]perfmodel.Config
}

// tablesKey holds the configuration fields the tables depend on.
type tablesKey struct {
	strategy2      bool
	candidates     bool
	retuneAll      bool
	topK           int
	maxThreadDelta int
}

func (rt *Runtime) tablesKey() tablesKey {
	k := tablesKey{strategy2: rt.cfg.Strategy2}
	if rt.cfg.Strategy3 && (rt.cfg.Strategy1 || rt.cfg.Strategy2) {
		k.candidates = true
		k.retuneAll = rt.cfg.RetuneAll
		k.topK = rt.cfg.candidates()
		k.maxThreadDelta = rt.cfg.maxThreadDelta()
	}
	return k
}

// New returns a runtime for machine m (nil means hw.NewKNL()).
func New(m *hw.Machine, cfg Config) *Runtime {
	if m == nil {
		m = hw.NewKNL()
	}
	return &Runtime{cfg: cfg, machine: m}
}

// Machine exposes the hardware model the runtime schedules for.
func (rt *Runtime) Machine() *hw.Machine { return rt.machine }

// Store exposes the hill-climbing profiles gathered by Profile.
func (rt *Runtime) Store() *perfmodel.Store { return rt.store }

// Profile runs the profiling steps for graph g: a hill-climbing search per
// distinct operation class (Strategy 1) and the per-kind largest-instance
// reduction (Strategy 2). The paper folds this into the first few training
// steps; the step budget is Store().StepsUsed(). Profiles come from the
// process-wide perfmodel cache, so repeated runs over the same (machine,
// graph) pair — the experiment sweep's common case — skip the search, and
// share the tables derived from the store; the runtime only ever reads
// them after this point.
func (rt *Runtime) Profile(g *graph.Graph) error {
	if err := g.Validate(); err != nil {
		return err
	}
	rt.graph = g
	rt.store = perfmodel.CachedProfileGraph(rt.machine, g, rt.cfg.interval())
	t := rt.store.Derive(rt.tablesKey(), func() any { return rt.buildTables(g) }).(*tables)
	rt.byKind, rt.cands = t.byKind, t.cands
	return nil
}

// buildTables derives the tables for rt's store and configuration: the
// per-kind largest-instance profiles and, when Strategy 3 can run, the
// candidate list of every tunable operation class in g (untunable ones
// only ever run at the baseline width).
func (rt *Runtime) buildTables(g *graph.Graph) *tables {
	rt.byKind = perfmodel.LargestInstanceProfiles(g, rt.store)
	t := &tables{byKind: rt.byKind}
	if !rt.tablesKey().candidates {
		return t
	}
	t.cands = make(map[string][]perfmodel.Config)
	for _, n := range g.Nodes() {
		if !rt.tunable(n.Op) {
			continue
		}
		sig := n.Op.Signature()
		if _, ok := t.cands[sig]; !ok {
			t.cands[sig] = rt.prepareCandidates(n.Op)
		}
	}
	return t
}

// Name implements exec.Scheduler. Every simulated job renders it, so it
// avoids fmt for the reason hw.Machine.String does.
func (rt *Runtime) Name() string {
	return "opsched(s1=" + strconv.FormatBool(rt.cfg.Strategy1) +
		",s2=" + strconv.FormatBool(rt.cfg.Strategy2) +
		",s3=" + strconv.FormatBool(rt.cfg.Strategy3) +
		",s4=" + strconv.FormatBool(rt.cfg.Strategy4) +
		",x=" + strconv.Itoa(rt.cfg.interval()) + ")"
}

// tunable reports whether the runtime may change the operation's intra-op
// parallelism (the paper is restricted to MKL-DNN kernels).
func (rt *Runtime) tunable(o *op.Op) bool {
	return rt.cfg.RetuneAll || o.Kind.IsMKL()
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

// Schedule implements exec.Scheduler.
func (rt *Runtime) Schedule(st *exec.State) []exec.Decision {
	if len(st.Ready) == 0 {
		return nil
	}
	if !rt.cfg.Strategy3 {
		return rt.scheduleSerial(st)
	}
	ds := rt.scheduleCoRun(st)
	if rt.cfg.Strategy4 {
		ds = append(ds, rt.scheduleHyperThreading(st, ds)...)
	}
	return ds
}

// scheduleSerial is the inter-op-1 policy of Strategies 1-2: one operation
// at a time, each at its tuned thread count.
func (rt *Runtime) scheduleSerial(st *exec.State) []exec.Decision {
	if len(st.Running) > 0 {
		return nil
	}
	node := st.Ready[0]
	cfg := rt.chosenConfig(st.Graph.Node(node).Op)
	return []exec.Decision{{Node: node, Threads: cfg.Threads, Placement: cfg.Placement, Pinned: true}}
}

// scheduleCoRun implements Strategy 3. Whenever cores idle, every ready
// operation's top candidate configurations are checked against the idle
// budget and the system-throughput constraint; the fitting candidate with
// the fewest threads wins, releasing cores for more co-runners. If nothing
// fits and the machine is empty, the most time-consuming ready operation
// runs at its tuned width.
func (rt *Runtime) scheduleCoRun(st *exec.State) []exec.Decision {
	idle := st.IdleCores()
	maxRemaining := st.MaxRemainingNs()
	running := len(st.Running)

	var ds []exec.Decision
	for _, node := range st.Ready {
		if idle <= 0 {
			break
		}
		o := st.Graph.Node(node).Op
		cand, ok := rt.corunCandidate(o, idle, maxRemaining, running+len(ds) > 0)
		if !ok {
			continue
		}
		ds = append(ds, exec.Decision{Node: node, Threads: cand.Threads, Placement: cand.Placement, Pinned: true})
		idle -= cand.Placement.CoresUsed(rt.machine, cand.Threads)
		if cand.TimeNs > maxRemaining {
			maxRemaining = cand.TimeNs
		}
	}

	// Nothing fits and nothing is running: fall back to the most
	// time-consuming ready operation so the machine never idles.
	if len(ds) == 0 && running == 0 {
		bestNode := st.Ready[0]
		bestTime := -1.0
		for _, node := range st.Ready {
			cfg := rt.chosenConfig(st.Graph.Node(node).Op)
			if cfg.TimeNs > bestTime {
				bestTime = cfg.TimeNs
				bestNode = node
			}
		}
		cfg := rt.chosenConfig(st.Graph.Node(bestNode).Op)
		ds = append(ds, exec.Decision{Node: bestNode, Threads: cfg.Threads, Placement: cfg.Placement, Pinned: true})
	}
	return ds
}

// corunCandidate picks, for one ready operation, the Strategy-3 candidate
// that fits the idle cores without hurting throughput. constrained marks
// whether the throughput bound applies (it does not when the machine is
// empty).
func (rt *Runtime) corunCandidate(o *op.Op, idle int, maxRemaining float64, constrained bool) (perfmodel.Config, bool) {
	if !rt.tunable(o) || (!rt.cfg.Strategy1 && !rt.cfg.Strategy2) {
		// Untunable operations can only run at the baseline width.
		base := rt.baseline()
		if base.Placement.CoresUsed(rt.machine, base.Threads) > idle {
			return perfmodel.Config{}, false
		}
		base.TimeNs = rt.predictTime(o, base.Threads, base.Placement)
		if constrained && base.TimeNs > maxRemaining {
			return perfmodel.Config{}, false
		}
		return base, true
	}

	cands, ok := rt.candidates(o)
	if !ok {
		return perfmodel.Config{}, false
	}
	for _, c := range cands {
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

// candidates returns the prepared Strategy-3 candidate list of an
// operation's class.
func (rt *Runtime) candidates(o *op.Op) ([]perfmodel.Config, bool) {
	cands := rt.cands[o.Signature()]
	return cands, len(cands) > 0
}

// prepareCandidates builds the Strategy-3 candidate list of one operation
// class: the governing profile's top-k thread counts with this instance's
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
	cands := gov.TopConfigs(rt.machine, rt.cfg.candidates())
	for i := range cands {
		cands[i].TimeNs = inst.Predict(cands[i].Threads, cands[i].Placement)
	}
	// Strategy-2/3 conflict rule: a candidate far from the Strategy-2
	// choice would thrash the operation's concurrency; it is replaced by
	// the Strategy-2 configuration.
	if rt.cfg.Strategy2 {
		s2 := rt.chosenConfig(o)
		for i := range cands {
			if abs(cands[i].Threads-s2.Threads) > rt.cfg.maxThreadDelta() {
				cands[i] = s2
			}
		}
	}
	// Deterministic order: fewest threads first among the top-k.
	sort.Slice(cands, func(i, j int) bool { return cands[i].Threads < cands[j].Threads })
	return cands
}

// scheduleHyperThreading implements Strategy 4: when a running (or just
// scheduled) operation occupies every physical core, the smallest ready
// operations — by serial execution time — co-run on the second hardware
// thread of those cores.
func (rt *Runtime) scheduleHyperThreading(st *exec.State, pending []exec.Decision) []exec.Decision {
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
		return nil
	}

	guests := 0
	for _, r := range st.Running {
		if r.HT {
			guests++
		}
	}
	budget := rt.cfg.maxHTGuests() - guests
	if budget <= 0 {
		return nil
	}

	taken := make(map[graph.NodeID]bool, len(pending))
	for _, d := range pending {
		taken[d.Node] = true
	}

	// Rank ready operations by serial execution time, shortest first.
	type small struct {
		node   graph.NodeID
		serial float64
	}
	var pool []small
	for _, node := range st.Ready {
		if taken[node] {
			continue
		}
		o := st.Graph.Node(node).Op
		if !rt.tunable(o) {
			continue
		}
		pool = append(pool, small{node, rt.predictTime(o, 1, hw.Spread)})
	}
	sort.Slice(pool, func(i, j int) bool {
		if pool[i].serial != pool[j].serial {
			return pool[i].serial < pool[j].serial
		}
		return pool[i].node < pool[j].node
	})

	var ds []exec.Decision
	for _, s := range pool {
		if budget <= 0 {
			break
		}
		o := st.Graph.Node(s.node).Op
		cfg := rt.chosenConfig(o)
		threads := cfg.Threads
		if threads > rt.machine.Cores {
			threads = rt.machine.Cores
		}
		// A guest runs on the second hardware thread at roughly half
		// throughput; it must be genuinely small next to the host's
		// remaining time or it would stretch the critical path instead of
		// filling idle cycles (the paper picks the *smallest* ready
		// operations for exactly this reason — gradient-chain
		// convolutions must never ride hyper-threads).
		guestTime := rt.predictTime(o, threads, cfg.Placement) / rt.machine.HT2Eff
		if guestTime > 0.15*hostRemaining {
			continue
		}
		ds = append(ds, exec.Decision{Node: s.node, Threads: threads, Placement: cfg.Placement, HT: true, Pinned: true})
		budget--
	}
	return ds
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
