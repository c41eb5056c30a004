package multijob

import (
	"fmt"
	"math/rand"
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
	cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// referenceOrder is the arbiter order as a stable library sort: the
// unfinished jobs by less, ties on job index. The arbiters' insertion sort
// must reproduce it exactly.
func referenceOrder(js []*JobState, less func(a, b *JobState) bool) []*JobState {
	var out []*JobState
	for _, j := range js {
		if j.Active() {
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
		return out[i].Index < out[k].Index
	})
	return out
}

// randomJobStates builds a mid-run job set whose sort keys collide on
// purpose: progress, priority and remaining work each come from a handful
// of values, some jobs are finished, and every job holds a random set of
// running operations. Shuffled input order makes the index tie-break
// matter.
func randomJobStates(rng *rand.Rand, g *graph.Graph) []*JobState {
	js := make([]*JobState, 1+rng.Intn(10))
	for i := range js {
		j := &JobState{Job: Job{Name: fmt.Sprintf("j%d", i), Graph: g, Priority: rng.Intn(3)}, Index: i}
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
			j.running = append(j.running, &exec.Running{Threads: 1 + rng.Intn(20), Placement: pl, HT: rng.Intn(4) == 0})
		}
		js[i] = j
	}
	rng.Shuffle(len(js), func(a, b int) { js[a], js[b] = js[b], js[a] })
	return js
}

// TestArbiterOrderMatchesStableSort: on random job sets with deliberate
// ties, every built-in arbiter's Order equals the stable-sort reference,
// both outside an engine and through an engine-owned Order buffer; Budget
// equals the strict-ordering budget over the reference order; and a
// Budget call, which re-runs Order into the shared buffer, leaves an
// earlier Order result exactly as it was — the engine iterates one while
// calling the other.
func TestArbiterOrderMatchesStableSort(t *testing.T) {
	m := hw.NewKNL()
	g := randomGraph(rand.New(rand.NewSource(1)), "g")
	less := map[string]func(a, b *JobState) bool{
		"fair":     func(a, b *JobState) bool { return a.ProgressFraction() < b.ProgressFraction() },
		"priority": func(a, b *JobState) bool { return a.Priority > b.Priority },
		"srwf":     func(a, b *JobState) bool { return a.RemainingWorkNs() < b.RemainingWorkNs() },
	}
	equal := func(a, b []*JobState) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		js := randomJobStates(rng, g)
		for _, name := range Arbiters() {
			arb, err := NewArbiter(name)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceOrder(js, less[name])
			for _, j := range js {
				j.order = nil
			}
			if got := arb.Order(js); !equal(got, want) {
				t.Logf("seed=%d %s: unbuffered order differs from the stable sort", seed, name)
				return false
			}
			var buf []*JobState
			for _, j := range js {
				j.order = &buf
			}
			got := arb.Order(js)
			snapshot := append([]*JobState(nil), got...)
			if !equal(got, want) {
				t.Logf("seed=%d %s: buffered order differs from the stable sort", seed, name)
				return false
			}
			for _, j := range js {
				b := arb.Budget(j, js, m)
				if ref := leftoverBudget(j, want, m); name != "fair" && b != ref {
					t.Logf("seed=%d %s job %d: budget %d, reference %d", seed, name, j.Index, b, ref)
					return false
				}
			}
			if !equal(got, snapshot) {
				t.Logf("seed=%d %s: Budget changed an earlier Order result", seed, name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(19))}); err != nil {
		t.Error(err)
	}
}

// TestFairShareBudgetReadsEngineTotal: the fair-share budget computed from
// an engine's once-per-event active-weight total equals the budget summed
// afresh on every call, on random job sets with random weights.
func TestFairShareBudgetReadsEngineTotal(t *testing.T) {
	m := hw.NewKNL()
	g := randomGraph(rand.New(rand.NewSource(2)), "g")
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		js := randomJobStates(rng, g)
		for _, j := range js {
			j.Weight = float64(rng.Intn(4)) * 0.75
		}
		want := make([]int, len(js))
		for i, j := range js {
			want[i] = FairShare{}.Budget(j, js, m)
		}
		total := activeWeight(js)
		for _, j := range js {
			j.activeWeight = &total
		}
		for i, j := range js {
			if got := (FairShare{}).Budget(j, js, m); got != want[i] {
				t.Fatalf("trial %d job %d: cached-total budget %d, summed %d", trial, j.Index, got, want[i])
			}
		}
	}
}
