package multijob

import (
	"fmt"
	"math/big"
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
			// Inter-op 1-4 and intra-op 8-136 span core.DefaultGrid's range,
			// oversubscribed FIFO configurations included.
			j := FIFOJob(fmt.Sprintf("j%d", i), randomGraph(rng, fmt.Sprintf("g%d", i)),
				1+rng.Intn(4), 8+rng.Intn(129))
			j.Weight = 0.5 + rng.Float64()*2
			j.Priority = rng.Intn(3)
			jobs[i] = j
		}
		res, err := CoTrain(jobs, arb, m)
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
// unfinished jobs by less, ties on job index. The policy's one-pass claim
// order must reproduce it exactly.
func referenceOrder(js []jobState, less func(a, b *jobState) bool) []int {
	var out []int
	for i := range js {
		if js[i].active() {
			out = append(out, i)
		}
	}
	sort.SliceStable(out, func(i, k int) bool {
		if less(&js[out[i]], &js[out[k]]) {
			return true
		}
		if less(&js[out[k]], &js[out[i]]) {
			return false
		}
		return out[i] < out[k]
	})
	return out
}

// fairBudget is the fair-share budget by definition: floor(Cores * w_j /
// sum of active weights), never below one core, with the quotient taken
// exactly over the summed float64 weights.
func fairBudget(j *jobState, js []jobState, m *hw.Machine) int {
	total := 0.0
	for i := range js {
		if js[i].active() {
			total += js[i].weight()
		}
	}
	return max(exactFloorShare(m.Cores, j.weight(), total), 1)
}

// exactFloorShare is floor(cores * w / total) in exact rational
// arithmetic.
func exactFloorShare(cores int, w, total float64) int {
	q := new(big.Rat).SetFloat64(w)
	q.Mul(q, new(big.Rat).SetInt64(int64(cores)))
	q.Quo(q, new(big.Rat).SetFloat64(total))
	return int(new(big.Int).Quo(q.Num(), q.Denom()).Int64())
}

// randomJobStates builds a mid-run job set whose sort keys collide on
// purpose: progress, priority and remaining work each come from a handful
// of values, weights from a few (zero meaning 1), and some jobs are
// finished. Each job's progress is already folded (its records are the
// empty runs the test passes), so the claim order reads these keys as
// they are.
func randomJobStates(rng *rand.Rand, g *graph.Graph) []jobState {
	js := make([]jobState, 1+rng.Intn(10))
	for i := range js {
		j := jobState{Job: Job{Name: fmt.Sprintf("j%d", i), Graph: g, Priority: rng.Intn(3),
			Weight: float64(rng.Intn(4)) * 0.75}}
		if rng.Intn(5) == 0 {
			j.seen = g.Len()
		}
		j.totalWork = float64(rng.Intn(3)) * 100
		j.remainingWork = float64(rng.Intn(3)) * 50
		if j.remainingWork > j.totalWork {
			j.remainingWork = j.totalWork
		}
		js[i] = j
	}
	return js
}

// TestArbiterOrderMatchesStableSort: on random job sets with deliberate
// ties, every arbiter's one-pass claim order equals the stable-sort
// reference, and each claim carries the cap by definition — fairBudget
// under fair share, and under the strict orders exec.Leftover, whatever
// the jobs ahead in that order leave idle.
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
		js := randomJobStates(rng, g)
		runs := make([]exec.Result, len(js))
		for i := range js {
			runs[i].Records = make([]exec.OpRecord, js[i].seen)
		}
		for _, name := range Arbiters() {
			arb, err := NewArbiter(name)
			if err != nil {
				t.Fatal(err)
			}
			p := &policy{m: m, arb: arb, js: js}
			claims := p.claims(runs, nil)
			got := make([]int, len(claims))
			for k, c := range claims {
				got[k] = c.Job
			}
			if want := referenceOrder(js, less[arb]); !slices.Equal(got, want) {
				t.Logf("seed=%d %s: claim order %v differs from the stable sort %v", seed, name, got, want)
				return false
			}
			for _, c := range claims {
				ref := exec.Leftover
				if arb == FairShare {
					ref = fairBudget(&js[c.Job], js, m)
				}
				if c.Cap != ref {
					t.Logf("seed=%d %s job %d: cap %d, reference %d", seed, name, c.Job, c.Cap, ref)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(19))}); err != nil {
		t.Error(err)
	}
}
