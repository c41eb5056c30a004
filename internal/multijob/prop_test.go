package multijob

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"opsched/internal/exec"
	"opsched/internal/graph"
	"opsched/internal/hw"
	"opsched/internal/op"
)

// TestJainIndexProperty: Jain's fairness index stays in (0,1] for any
// non-empty set of positive allocations, and hits exactly 1 when every
// allocation is equal — the bounds every fairness report relies on.
func TestJainIndexProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bounded := func(raw []uint16) bool {
		xs := make([]float64, 0, len(raw))
		for _, r := range raw {
			xs = append(xs, 1+float64(r)) // strictly positive
		}
		j := jainIndex(xs)
		if len(xs) == 0 {
			return j == 1
		}
		return j > 0 && j <= 1+1e-12
	}
	if err := quick.Check(bounded, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
	equal := func(x uint16, n uint8) bool {
		xs := make([]float64, 1+int(n)%16)
		for i := range xs {
			xs[i] = 1 + float64(x)
		}
		j := jainIndex(xs)
		return j > 1-1e-12 && j < 1+1e-12
	}
	if err := quick.Check(equal, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// randomGraph builds a small random fork-join dataflow graph: a chain of
// convolution stages, each stage fanning out over 1-3 parallel operations.
func randomGraph(rng *rand.Rand, name string) *graph.Graph {
	g := graph.New(name)
	stages := 2 + rng.Intn(3)
	var prev []graph.NodeID
	for s := 0; s < stages; s++ {
		width := 1 + rng.Intn(3)
		var stage []graph.NodeID
		for k := 0; k < width; k++ {
			o := op.Conv(op.Conv2D, 16+rng.Intn(17), 8, 8, 64+32*rng.Intn(3), 3, 128, 1)
			stage = append(stage, g.Add(o, fmt.Sprintf("s%d_%d", s, k), prev...))
		}
		prev = stage
	}
	return g
}

// TestCoTrainSlowdownProperty is the scheduling-core invariant under
// seeded random inputs: for random job sets (random small graphs, random
// FIFO configurations, random weights) under every arbiter, every co-run
// job reports slowdown >= 1 — sharing a machine never beats running alone
// — and the fairness index stays in (0,1].
func TestCoTrainSlowdownProperty(t *testing.T) {
	m := hw.NewKNL()
	prop := func(seed int64, arbIdx uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		arbName := Arbiters()[int(arbIdx)%len(Arbiters())]
		arb, err := NewArbiter(arbName)
		if err != nil {
			t.Log(err)
			return false
		}
		nJobs := 2 + rng.Intn(2)
		if rng.Intn(3) == 0 {
			// Wide sets saturate the machine, so strict-order budgets see
			// jobs ahead of them holding cores.
			nJobs = 8 + rng.Intn(17)
		}
		jobs := make([]Job, nJobs)
		for i := range jobs {
			j := FIFOJob(fmt.Sprintf("j%d", i), randomGraph(rng, fmt.Sprintf("g%d", i)),
				1+rng.Intn(2), 8+rng.Intn(61))
			j.Weight = 0.5 + rng.Float64()*2
			j.Priority = rng.Intn(3)
			jobs[i] = j
		}
		res, err := CoTrain(jobs, arb, Options{Machine: m})
		if err != nil {
			t.Logf("seed=%d arbiter=%s: %v", seed, arbName, err)
			return false
		}
		for _, jr := range res.Jobs {
			if jr.SoloNs <= 0 || jr.Slowdown < 1-1e-9 {
				t.Logf("seed=%d arbiter=%s: job %s solo %.0fns corun %.0fns slowdown %.4f",
					seed, arbName, jr.Name, jr.SoloNs, jr.MakespanNs, jr.Slowdown)
				return false
			}
		}
		if res.FairnessIndex <= 0 || res.FairnessIndex > 1+1e-12 {
			t.Logf("seed=%d arbiter=%s: fairness %v outside (0,1]", seed, arbName, res.FairnessIndex)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 24, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// referenceOrder is the arbiter order as a stable library sort: the
// unfinished jobs by less, ties on job index. The engine's one-pass claim
// order must reproduce it exactly.
func referenceOrder(js []*jobState, less func(a, b *jobState) bool) []*jobState {
	var out []*jobState
	for _, j := range js {
		if j.active() {
			out = append(out, j)
		}
	}
	sort.SliceStable(out, func(i, k int) bool {
		if less(out[i], out[k]) {
			return true
		}
		if less(out[k], out[i]) {
			return false
		}
		return out[i].index < out[k].index
	})
	return out
}

// coresInUse sums the physical cores j's non-HT running operations occupy
// afresh, the quantity the engine keeps in jobState.cores.
func coresInUse(j *jobState, m *hw.Machine) int {
	used := 0
	for _, r := range j.running {
		if !r.HT {
			used += r.Placement.CoresUsed(m, r.Threads)
		}
	}
	return used
}

// leftoverBudget is the strict-ordering budget by definition: job j may
// hold whatever the jobs ahead of it in ordered do not.
func leftoverBudget(j *jobState, ordered []*jobState, m *hw.Machine) int {
	b := m.Cores
	for _, o := range ordered {
		if o == j {
			break
		}
		b -= coresInUse(o, m)
	}
	if b < 0 {
		return 0
	}
	return b
}

// fairBudget is the fair-share budget by definition: floor(Cores * w_j /
// sum of active weights), never below one core.
func fairBudget(j *jobState, js []*jobState, m *hw.Machine) int {
	total := 0.0
	for _, o := range js {
		if o.active() {
			total += o.weight()
		}
	}
	return max(int(float64(m.Cores)*j.weight()/total), 1)
}

// randomJobStates builds a mid-run job set whose sort keys collide on
// purpose: progress, priority and remaining work each come from a handful
// of values, weights from a few (zero meaning 1), some jobs are finished,
// and every job holds a random set of running operations. Shuffled input
// order makes the index tie-break matter.
func randomJobStates(rng *rand.Rand, g *graph.Graph, m *hw.Machine) []*jobState {
	js := make([]*jobState, 1+rng.Intn(10))
	for i := range js {
		j := &jobState{Job: Job{Name: fmt.Sprintf("j%d", i), Graph: g, Priority: rng.Intn(3),
			Weight: float64(rng.Intn(4)) * 0.75}, index: i}
		if rng.Intn(5) == 0 {
			j.done = g.Len()
		}
		j.totalWork = float64(rng.Intn(3)) * 100
		j.remainingWork = float64(rng.Intn(3)) * 50
		if j.remainingWork > j.totalWork {
			j.remainingWork = j.totalWork
		}
		for k := rng.Intn(3); k > 0; k-- {
			pl := hw.Shared
			if rng.Intn(2) == 0 {
				pl = hw.Spread
			}
			j.running = append(j.running, &exec.Running{Threads: 1 + rng.Intn(40), Placement: pl, HT: rng.Intn(4) == 0})
		}
		j.cores = coresInUse(j, m)
		js[i] = j
	}
	rng.Shuffle(len(js), func(a, b int) { js[a], js[b] = js[b], js[a] })
	return js
}

// TestArbiterOrderMatchesStableSort: on random job sets with deliberate
// ties, every arbiter's one-pass claim order equals the stable-sort
// reference, and the budget each job gets from the running count of
// cores held ahead of it in that order equals the budget by definition —
// leftoverBudget for the strict orders, fairBudget for fair share.
func TestArbiterOrderMatchesStableSort(t *testing.T) {
	m := hw.NewKNL()
	g := randomGraph(rand.New(rand.NewSource(1)), "g")
	less := map[Arbiter]func(a, b *jobState) bool{
		FairShare: func(a, b *jobState) bool { return a.progress() < b.progress() },
		Priority:  func(a, b *jobState) bool { return a.Priority > b.Priority },
		SRWF:      func(a, b *jobState) bool { return a.remainingWork < b.remainingWork },
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		js := randomJobStates(rng, g, m)
		for _, name := range Arbiters() {
			arb, err := NewArbiter(name)
			if err != nil {
				t.Fatal(err)
			}
			e := &engine{m: m, arb: arb, js: js}
			total := e.claimOrder()
			want := referenceOrder(js, less[arb])
			if !slices.Equal(e.order, want) {
				t.Logf("seed=%d %s: claim order differs from the stable sort", seed, name)
				return false
			}
			ahead := 0
			for _, j := range e.order {
				b := arb.budget(j, m, total, ahead)
				ref := leftoverBudget(j, want, m)
				if arb == FairShare {
					ref = fairBudget(j, js, m)
				}
				if b != ref {
					t.Logf("seed=%d %s job %d: budget %d, reference %d", seed, name, j.index, b, ref)
					return false
				}
				ahead += j.cores
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(19))}); err != nil {
		t.Error(err)
	}
}
