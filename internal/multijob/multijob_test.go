package multijob

import (
	"math"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"opsched/internal/core"
	"opsched/internal/hw"
	"opsched/internal/nn"
	"opsched/internal/stats"
)

// runtimeJobs builds one runtime-scheduled job per model name, earlier
// models outranking later ones in strict priority.
func runtimeJobs(t *testing.T, m *hw.Machine, names ...string) []Job {
	t.Helper()
	jobs := make([]Job, len(names))
	for i, name := range names {
		model := nn.MustBuild(name)
		j, err := RuntimeJob(model.Name, model.Graph, m, core.AllStrategies())
		if err != nil {
			t.Fatal(err)
		}
		j.Priority = len(names) - i
		jobs[i] = j
	}
	return jobs
}

// TestCoRunNeverBeatsSolo: sharing a machine can only hurt — under every
// arbiter, every job's co-run makespan is at least its solo makespan, and
// the run executes every operation of every graph.
func TestCoRunNeverBeatsSolo(t *testing.T) {
	m := hw.NewKNL()
	for _, arbName := range Arbiters() {
		arb, err := NewArbiter(arbName)
		if err != nil {
			t.Fatal(err)
		}
		jobs := runtimeJobs(t, m, nn.ResNet50, nn.LSTM)
		res, err := CoTrain(jobs, arb, m)
		if err != nil {
			t.Fatalf("%s: %v", arbName, err)
		}
		maxMakespan := 0.0
		for i, jr := range res.Jobs {
			if jr.Ops != jobs[i].Graph.Len() || len(jr.Records) != jr.Ops {
				t.Errorf("%s/%s: %d ops, %d records, graph has %d",
					arbName, jr.Name, jr.Ops, len(jr.Records), jobs[i].Graph.Len())
			}
			if jr.SoloNs <= 0 || jr.MakespanNs < jr.SoloNs*(1-1e-9) {
				t.Errorf("%s/%s: co-run %.0fns beats solo %.0fns",
					arbName, jr.Name, jr.MakespanNs, jr.SoloNs)
			}
			if jr.Slowdown < 1-1e-9 {
				t.Errorf("%s/%s: slowdown %.4f < 1", arbName, jr.Name, jr.Slowdown)
			}
			last := 0.0
			for _, r := range jr.Records {
				if r.FinishNs > last {
					last = r.FinishNs
				}
			}
			if math.Abs(last-jr.MakespanNs) > 1e-6 {
				t.Errorf("%s/%s: makespan %.0f != last record finish %.0f",
					arbName, jr.Name, jr.MakespanNs, last)
			}
			if jr.MakespanNs > maxMakespan {
				maxMakespan = jr.MakespanNs
			}
		}
		if math.Abs(res.TotalNs-maxMakespan) > 1e-6 {
			t.Errorf("%s: total %.0f != max makespan %.0f", arbName, res.TotalNs, maxMakespan)
		}
		if res.FairnessIndex <= 0 || res.FairnessIndex > 1+1e-9 {
			t.Errorf("%s: fairness index %.4f outside (0,1]", arbName, res.FairnessIndex)
		}
	}
}

// TestCoTrainDeterminism: the same mix under the same arbiter renders a
// byte-identical report on every run.
func TestCoTrainDeterminism(t *testing.T) {
	m := hw.NewKNL()
	for _, arbName := range Arbiters() {
		arb, _ := NewArbiter(arbName)
		run := func() string {
			res, err := CoTrain(runtimeJobs(t, m, nn.DCGAN, nn.LSTM), arb, m)
			if err != nil {
				t.Fatal(err)
			}
			return res.Render()
		}
		if a, b := run(), run(); a != b {
			t.Errorf("%s: reports differ:\n%s\nvs\n%s", arbName, a, b)
		}
	}
}

// TestSingleJobMatchesSolo: a co-run of one job is exactly that job's solo
// run — no phantom contention, makespan bit-identical to SoloNs, slowdown
// exactly 1 and fairness exactly 1 — under every arbiter, for every model,
// for the runtime under every strategy configuration and every point of
// the manual FIFO grid, the oversubscribed ones included, at priorities 0
// and 7 and at weights from the smallest subnormal to MaxWeight (0 means
// 1; 1.887676273034419 and 996339.6111992765 are weights whose rounded
// fair-share quotient once fell short of the machine). The cluster
// engine's CPU nodes rely on it to answer a one-job wave from SoloNs.
func TestSingleJobMatchesSolo(t *testing.T) {
	m := hw.NewKNL()
	weights := []float64{0, 1, 1.887676273034419, 996339.6111992765, MaxWeight, 5e-324}
	for _, name := range nn.Names() {
		for _, job := range soloJobs(t, m, nn.MustBuild(name).Graph, func(core.ManualConfig) bool { return true }) {
			solo, err := SoloNs(job, m)
			if err != nil {
				t.Fatalf("%s %s: %v", name, job.Name, err)
			}
			for _, arbName := range Arbiters() {
				arb, _ := NewArbiter(arbName)
				for _, prio := range []int{0, 7} {
					for _, w := range weights {
						job.Priority, job.Weight = prio, w
						res, err := CoRun([]Job{job}, []float64{solo}, arb, m)
						if err != nil {
							t.Fatalf("%s %s %s: %v", name, job.Name, arbName, err)
						}
						jr := res.Jobs[0]
						if math.Float64bits(jr.MakespanNs) != math.Float64bits(solo) || jr.Slowdown != 1 || res.FairnessIndex != 1 {
							t.Errorf("%s %s %s priority %d weight %v: solo %v ns, co-run %v ns, slowdown %v, fairness %v; want the solo makespan, 1 and 1",
								name, job.Name, arbName, prio, w, solo, jr.MakespanNs, jr.Slowdown, res.FairnessIndex)
						}
					}
				}
			}
		}
	}
}

// TestFairShareFloorsExactly: the fair share is the exact floor of
// Cores * w / total. The weights are ones whose rounded quotient 68*w/w
// fell to 67.99…, which capped a lone job one core short of the machine
// it ran alone on: a lone FIFO 2×34 LSTM reported slowdown 1.064. A lone
// job of each weight now gets the whole machine and slowdown exactly 1,
// and k equal weights get Cores/k wherever k divides Cores and the
// float64 sum of the k weights is exact. Random weight sets match the
// exact rational floor.
func TestFairShareFloorsExactly(t *testing.T) {
	m := hw.NewKNL()
	lstm := nn.MustBuild(nn.LSTM).Graph
	weights := []float64{1.887676273034419, 1.9253252243293453, 996339.6111992765}
	split := 0
	for _, w := range weights {
		job := FIFOJob("lone", lstm, 2, 34)
		job.Weight = w
		res, err := CoTrain([]Job{job}, FairShare, m)
		if err != nil {
			t.Fatal(err)
		}
		if jr := res.Jobs[0]; jr.Slowdown != 1 {
			t.Errorf("weight %v: lone job's slowdown %v, want 1", w, jr.Slowdown)
		}
		for _, cores := range []int{m.Cores, 4 * m.Cores} {
			for k := 1; k <= cores; k++ {
				total := 0.0
				for i := 0; i < k; i++ {
					total += w
				}
				exact := new(big.Rat).Mul(new(big.Rat).SetFloat64(w), new(big.Rat).SetInt64(int64(k)))
				if cores%k != 0 || exact.Cmp(new(big.Rat).SetFloat64(total)) != 0 {
					continue
				}
				if k > 1 {
					split++
				}
				if got := fairShare(cores, w, total); got != cores/k {
					t.Errorf("weight %v, %d cores, %d equal jobs: share %d, want %d", w, cores, k, got, cores/k)
				}
			}
		}
	}
	if split == 0 {
		t.Fatal("no equal-weight split had an exact weight sum")
	}
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 2000; n++ {
		cores := 1 + rng.Intn(300)
		ws := make([]float64, 1+rng.Intn(8))
		total := 0.0
		for i := range ws {
			ws[i] = math.Ldexp(1+rng.Float64(), rng.Intn(40)-20)
			total += ws[i]
		}
		for _, w := range ws {
			if got, want := fairShare(cores, w, total), exactFloorShare(cores, w, total); got != want {
				t.Fatalf("%d cores, weight %v of %v: share %d, exact floor %d", cores, w, total, got, want)
			}
		}
	}
}

// TestPriorityFavorsTopJob: under strict priority the top-ranked job is
// slowed no more than the bottom-ranked one.
func TestPriorityFavorsTopJob(t *testing.T) {
	m := hw.NewKNL()
	res, err := CoTrain(runtimeJobs(t, m, nn.ResNet50, nn.LSTM), Priority, m)
	if err != nil {
		t.Fatal(err)
	}
	if top, low := res.Jobs[0].Slowdown, res.Jobs[1].Slowdown; top > low+1e-9 {
		t.Errorf("priority slowed the top job more (%.3f) than the bottom one (%.3f)", top, low)
	}
}

// TestSRWFDrainsShortJobFirst: shortest-remaining-work-first finishes the
// short job before the long one.
func TestSRWFDrainsShortJobFirst(t *testing.T) {
	m := hw.NewKNL()
	res, err := CoTrain(runtimeJobs(t, m, nn.ResNet50, nn.LSTM), SRWF, m)
	if err != nil {
		t.Fatal(err)
	}
	long, short := res.Jobs[0], res.Jobs[1]
	if short.MakespanNs > long.MakespanNs {
		t.Errorf("srwf finished the short job (%.0fns) after the long one (%.0fns)",
			short.MakespanNs, long.MakespanNs)
	}
}

// TestMixedSchedulerJobs: a runtime-tuned job and a FIFO-baseline job can
// share the machine, and fair-share weights are accepted.
func TestMixedSchedulerJobs(t *testing.T) {
	m := hw.NewKNL()
	lstm := nn.MustBuild(nn.LSTM)
	dcgan := nn.MustBuild(nn.DCGAN)
	tuned, err := RuntimeJob("tuned", lstm.Graph, m, core.AllStrategies())
	if err != nil {
		t.Fatal(err)
	}
	fifo := FIFOJob("fifo", dcgan.Graph, 1, m.Cores)
	fifo.Weight = 2
	res, err := CoTrain([]Job{tuned, fifo}, FairShare, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, jr := range res.Jobs {
		if jr.Slowdown < 1-1e-9 {
			t.Errorf("%s: slowdown %.4f < 1", jr.Name, jr.Slowdown)
		}
	}
}

// jainIndex folds xs into stats.JainIndex the way CoRun folds its
// solo-normalized rates.
func jainIndex(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	return stats.JainIndex(sum, sumSq, len(xs))
}

// TestJainIndex: the fairness metric is 1 for equal allocations and
// degrades toward 1/n for one-sided ones.
func TestJainIndex(t *testing.T) {
	if got := jainIndex([]float64{0.5, 0.5, 0.5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal allocations: %v, want 1", got)
	}
	got := jainIndex([]float64{1, 0, 0, 0})
	if math.Abs(got-0.25) > 1e-12 {
		t.Errorf("one-sided allocation over 4 jobs: %v, want 0.25", got)
	}
	if got := jainIndex(nil); got != 1 {
		t.Errorf("empty allocation: %v, want 1", got)
	}
}

// TestCoTrainErrors: malformed inputs fail loudly.
func TestCoTrainErrors(t *testing.T) {
	m := hw.NewKNL()
	if _, err := CoTrain(nil, FairShare, m); err == nil {
		t.Error("empty job set accepted")
	}
	lstm := nn.MustBuild(nn.LSTM)
	if _, err := CoTrain([]Job{{Name: "", Graph: lstm.Graph}}, FairShare, m); err == nil {
		t.Error("unnamed job accepted")
	}
	if _, err := CoTrain([]Job{{Name: "x", Graph: lstm.Graph}}, FairShare, m); err == nil {
		t.Error("job with nil scheduler accepted")
	}
	if _, err := CoTrain([]Job{FIFOJob("x", nil, 1, 68)}, FairShare, m); err == nil {
		t.Error("job with nil graph accepted")
	}
	if _, err := NewArbiter("nope"); err == nil {
		t.Error("unknown arbiter name accepted")
	}
	fifo := FIFOJob("x", lstm.Graph, 1, 68)
	for _, w := range []float64{math.Inf(1), math.Nextafter(MaxWeight, math.Inf(1)), 1e308} {
		heavy := fifo
		heavy.Weight = w
		if _, err := CoTrain([]Job{heavy, fifo}, FairShare, m); err == nil || !strings.Contains(err.Error(), "weight") {
			t.Errorf("weight %v: err = %v, want a weight error", w, err)
		}
	}
	ceiling := fifo
	ceiling.Weight = MaxWeight
	if _, err := CoTrain([]Job{ceiling, fifo}, FairShare, m); err != nil {
		t.Errorf("weight at the ceiling rejected: %v", err)
	}
	if _, err := CoRun([]Job{fifo}, []float64{1}, SRWF+1, m); err == nil || !strings.Contains(err.Error(), "unknown arbiter") {
		t.Errorf("out-of-range arbiter: err = %v, want an unknown-arbiter error", err)
	}
}

// TestProgressFractionEdges: a job with no predicted work reads as fully
// progressed (the fair-share arbiter must not divide by zero), and
// partial work reads proportionally.
func TestProgressFractionEdges(t *testing.T) {
	j := &jobState{}
	if got := j.progress(); got != 1 {
		t.Errorf("zero-work progress %v, want 1", got)
	}
	j.totalWork = 10
	j.remainingWork = 4
	if got := j.progress(); got != 0.6 {
		t.Errorf("progress %v, want 0.6", got)
	}
}
