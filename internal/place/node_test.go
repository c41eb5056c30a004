package place

import (
	"fmt"
	"math"
	"testing"

	"opsched/internal/core"
	"opsched/internal/hw"
	"opsched/internal/multijob"
	"opsched/internal/nn"
)

// freshCPUWave prices a wave the way the CPU runtime did before it cached
// per-model state: every job profiled from a freshly built graph, then
// multijob.CoTrain, which runs each job solo before the co-run.
func freshCPUWave(t *testing.T, m *hw.Machine, arb multijob.Arbiter, wave []WaveJob) *WaveResult {
	t.Helper()
	jobs := make([]multijob.Job, len(wave))
	for i, wj := range wave {
		job, err := multijob.RuntimeJob(wj.Name, buildModelGraph(wj.Model), m, core.AllStrategies())
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = cpuWaveJob(wj, job)
	}
	res, err := multijob.CoTrain(jobs, arb, m)
	if err != nil {
		t.Fatal(err)
	}
	return cpuWaveResult(res)
}

// sameWave reports whether two wave results are bit-identical.
func sameWave(a, b *WaveResult) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(a.TotalNs, b.TotalNs) || len(a.Jobs) != len(b.Jobs) {
		return false
	}
	for i, x := range a.Jobs {
		y := b.Jobs[i]
		if !same(x.SoloNs, y.SoloNs) || !same(x.MakespanNs, y.MakespanNs) || !same(x.Slowdown, y.Slowdown) {
			return false
		}
	}
	return true
}

// TestCPUModelCacheExact: a CPU runtime whose per-model cache is warm —
// every profiled job and solo makespan reused from earlier waves — prices
// a wave bit-identically to CoTrain over freshly built runtime jobs. Every
// model key the engine prices is covered (the training models and every
// inference key up to the dynamic-batch cap), each in a gang holding two
// jobs of that key, so both share one cached runtime, under each of the
// three arbiters, next to a mixed training/inference gang.
func TestCPUModelCacheExact(t *testing.T) {
	keys := allModelKeys()
	class := func(key string) string {
		if _, _, ok := parseInferKey(key); ok {
			return ClassInference
		}
		return ClassTraining
	}
	m := hw.NewKNL()
	for _, name := range multijob.Arbiters() {
		arb, err := multijob.NewArbiter(name)
		if err != nil {
			t.Fatal(err)
		}
		rt := buildRuntimes([]Node{{CPU: m}}, arb)[0]
		check := func(wave []WaveJob) {
			t.Helper()
			got, err := rt.RunWave(wave)
			if err != nil {
				t.Fatal(err)
			}
			if want := freshCPUWave(t, m, arb, wave); !sameWave(got, want) {
				t.Errorf("%s wave %+v: cached %+v, fresh %+v", name, wave, got, want)
			}
		}
		for _, key := range keys {
			// Fill the cache with a lone job, then price the duo warm.
			if _, err := rt.RunWave([]WaveJob{{Name: key, Model: key, Weight: 1, Class: class(key)}}); err != nil {
				t.Fatal(err)
			}
			check([]WaveJob{
				{Name: fmt.Sprintf("%s#0", key), Model: key, Priority: 1, Weight: 1, Class: class(key)},
				{Name: fmt.Sprintf("%s#1", key), Model: key, Weight: 2, Class: class(key)},
			})
		}
		for _, key := range []string{nn.LSTM, nn.DCGAN, InferKey(nn.LSTM, 3)} {
			if _, err := rt.RunWave([]WaveJob{{Name: key, Model: key, Weight: 1, Class: class(key)}}); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(rt.(*cpuRuntime).models); n != len(keys) {
			t.Errorf("%s: %d cached models, want one per key (%d)", name, n, len(keys))
		}
		check([]WaveJob{
			{Name: "lstm#0", Model: nn.LSTM, Priority: 2, Weight: 1},
			{Name: "lstm@3#1", Model: InferKey(nn.LSTM, 3), Weight: 1, Class: ClassInference},
			{Name: "dcgan#2", Model: nn.DCGAN, Priority: 1, Weight: 0.5},
			{Name: "lstm#3", Model: nn.LSTM, Weight: 1},
		})
	}
}

// TestInferenceWeightBoostCapped: an inference slot's boosted arbiter
// weight stays within multijob.MaxWeight, so a request Check admits at the
// weight ceiling co-runs on a CPU node instead of failing multijob's
// validation.
func TestInferenceWeightBoostCapped(t *testing.T) {
	rt := buildRuntimes([]Node{{CPU: hw.NewKNL()}}, multijob.FairShare)[0]
	wave := []WaveJob{
		{Name: "infer", Model: InferKey(nn.DCGAN, 1), Weight: multijob.MaxWeight, Class: ClassInference},
		{Name: "train", Model: nn.LSTM, Weight: multijob.MaxWeight, Class: ClassTraining},
	}
	if w := cpuWaveJob(wave[0], multijob.Job{}).Weight; w != multijob.MaxWeight {
		t.Errorf("boosted weight %v, want the %v ceiling", w, float64(multijob.MaxWeight))
	}
	res, err := rt.RunWave(wave)
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range res.Jobs {
		if !(jr.Slowdown >= 1) {
			t.Errorf("%s: slowdown %v", wave[i].Name, jr.Slowdown)
		}
	}
}

// TestLoneCPUWaveIsSoloStep: the CPU runtime answers a one-job wave from
// the model's cached solo makespan, and that answer is bit-identical to
// the job's one-job co-run through multijob.CoRun — for every model key
// the engine prices, under each arbiter, at priorities 0 and 7, at weights
// from the smallest subnormal to multijob.MaxWeight (0 meaning 1, and the
// weights whose rounded fair-share quotient once fell short of the
// machine), as a training and as an inference slot.
func TestLoneCPUWaveIsSoloStep(t *testing.T) {
	weights := []float64{0, 1, 1.887676273034419, 996339.6111992765, multijob.MaxWeight, 5e-324}
	m := hw.NewKNL()
	for _, name := range multijob.Arbiters() {
		arb, err := multijob.NewArbiter(name)
		if err != nil {
			t.Fatal(err)
		}
		rt := buildRuntimes([]Node{{CPU: m}}, arb)[0].(*cpuRuntime)
		for _, key := range allModelKeys() {
			for _, prio := range []int{0, 7} {
				for _, w := range weights {
					for _, class := range []string{ClassTraining, ClassInference} {
						wave := []WaveJob{{Name: key, Model: key, Priority: prio, Weight: w, Class: class}}
						got, err := rt.RunWave(wave)
						if err != nil {
							t.Fatal(err)
						}
						want, err := rt.coRun(wave)
						if err != nil {
							t.Fatal(err)
						}
						if !sameWave(got, want) {
							t.Errorf("%s %+v: lone wave %+v, co-run %+v", name, wave[0], got.Jobs, want.Jobs)
						}
					}
				}
			}
		}
	}
}
