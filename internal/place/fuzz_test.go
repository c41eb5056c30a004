package place

import (
	"math"
	"slices"
	"testing"

	"opsched/internal/multijob"
)

// FuzzJobSpecCheck: Check never panics, and every spec it accepts places
// alone on a one-CPU, one-GPU cluster, finishing after it arrives with a
// slowdown of at least 1. The seeds include an arrival of 1e25 ns, which
// an unbounded Check accepted and which then reported a JCT and a slowdown
// of 0, and an inference request at the weight ceiling, whose boosted
// arbiter weight must stay within it.
//
// Steps is drawn from 0..8 only. Engine time grows faster than linearly in
// the step count (drainTailNs re-sums the remaining rounds every round),
// and no admission check caps Steps yet, so an unbounded draw would spend
// the fuzz budget on a handful of huge jobs.
func FuzzJobSpecCheck(f *testing.F) {
	f.Add("lstm", "", 1e25, 0.0, 0.0, 0.0, 0, uint8(1))
	f.Add("lstm", "", float64(MaxTimeNs), float64(MaxTimeNs), 1.0, 0.0, 0, uint8(1))
	f.Add("dcgan", ClassInference, 0.0, 0.0, 0.0, 50e6, 0, uint8(1))
	f.Add("dcgan", ClassInference, 0.0, 0.0, float64(multijob.MaxWeight), 50e6, 0, uint8(1))
	f.Add("lstm", ClassTraining, 0.0, 0.0, 1e308, 0.0, 0, uint8(1))
	f.Add("resnet", ClassTraining, 1e6, 5e8, 2.0, 0.0, 3, uint8(4))
	f.Add("inception", ClassInference, 0.0, 0.0, 0.0, 0.0, 0, uint8(2))
	f.Add("lstm", "", math.NaN(), 0.0, math.Inf(1), -1.0, -5, uint8(8))
	f.Add("vgg", "batch", -1.0, 1e300, -2.0, 1.0, 0, uint8(0))
	f.Fuzz(func(t *testing.T, model, class string, arrivalNs, deadlineNs, weight, sloNs float64, priority int, steps uint8) {
		j := JobSpec{
			Model: model, Class: class, ArrivalNs: arrivalNs, DeadlineNs: deadlineNs,
			Weight: weight, SLONs: sloNs, Priority: priority, Steps: int(steps % 9),
		}
		if j.Check(0) != nil {
			return
		}
		res, err := PlaceJobs(Workload{j}, Cluster{Nodes: 1, GPUs: 1}, Options{})
		if err != nil {
			t.Fatalf("Check accepted %+v but PlaceJobs failed: %v", j, err)
		}
		p := res.Jobs[0]
		if !(p.FinishNs > p.ArrivalNs) || !(p.Slowdown >= 1) {
			t.Fatalf("Check accepted %+v but it finished at %v after arriving at %v, slowdown %v",
				j, p.FinishNs, p.ArrivalNs, p.Slowdown)
		}
	})
}

// FuzzParseTriggers: no spec makes parseTriggers panic; a successful parse
// arms only built-in triggers, each at most once; and parsing the result's
// specName yields the same configuration. Seeds live in
// testdata/fuzz/FuzzParseTriggers.
func FuzzParseTriggers(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		ts, on, err := parseTriggers(spec)
		if err != nil {
			return
		}
		for i, tr := range ts {
			if int(tr) >= len(triggerNames) {
				t.Fatalf("spec %q armed unknown trigger %d", spec, tr)
			}
			if slices.Contains(ts[:i], tr) {
				t.Fatalf("spec %q armed %v twice", spec, tr)
			}
		}
		name := specName(on, ts)
		again, onAgain, err := parseTriggers(name)
		if err != nil || onAgain != on || !slices.Equal(again, ts) {
			t.Fatalf("spec %q renders %q, which parses to %v %v %v, want %v %v", spec, name, again, onAgain, err, ts, on)
		}
	})
}
