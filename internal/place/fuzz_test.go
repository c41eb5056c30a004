package place

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"opsched/internal/gpu"
	"opsched/internal/hw"
	"opsched/internal/multijob"
	"opsched/internal/nn"
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

// FuzzPickMatchesScan: the model-aware pick an arrival gets through the
// quiescent-node index is the node the linear scan picks. Each byte of
// states builds one node of a mixed fleet: bit 0 its hardware (CPU or
// GPU), bits 1-3 its state (idle since before, at or after the arrival;
// one to four jobs staged, ready by or after it; a wave whose round ends
// at, or drains before or after, the arrival; full to capacity), bits 4-5
// the number of jobs. The fuzzer also picks the arrival instant, the
// per-runtime work and each runtime's interference factor; the seeds
// include zero, +Inf and NaN work, work one ulp apart, a work gap that
// rounds away against the clock, and alpha 0, negative and infinite.
func FuzzPickMatchesScan(f *testing.F) {
	knl, p100 := hw.NewKNL(), gpu.NewP100()
	cpuA, gpuA := (&cpuRuntime{}).WaveAlpha(), p100.CoRunAlpha()
	mixed := []byte{0x0a, 0x01, 0x08, 0x1d, 0x00, 0x03, 0x10, 0x11, 0x02, 0x01}
	f.Add(mixed, 1e6, 5e6, 2e6, cpuA, gpuA)
	f.Add(mixed, 1e6, 2e6, 2e6, cpuA, gpuA)
	f.Add([]byte{0x0a, 0x0b, 0x00, 0x01}, 1e6, 2e6, 2e6, cpuA, gpuA)
	f.Add([]byte{0x08, 0x00, 0x01}, 1e6, 2e6, 2e6, 0.0, 0.0)
	f.Add([]byte{0x08, 0x00, 0x01}, 1e18, 1.0, 1.0, cpuA, gpuA)
	f.Add(mixed, 1e6, 2e6, math.Nextafter(2e6, 3e6), cpuA, gpuA)
	f.Add(mixed, 1e6, 0.0, 0.0, cpuA, gpuA)
	f.Add(mixed, 1e6, math.Inf(1), 3e6, cpuA, gpuA)
	f.Add(mixed, 1e6, math.NaN(), 3e6, cpuA, gpuA)
	f.Add(mixed, 1e6, 2e6, 3e6, math.Inf(1), gpuA)
	f.Add([]byte{0x00, 0x01}, 1e6, 3e6, 2e6, math.Inf(1), gpuA)
	f.Add([]byte{0x28, 0x01}, 1e6, 4e6, 1e6, -0.5, gpuA)
	f.Add(bytes.Repeat([]byte{0x07, 0x16}, 70), 1e6, 4e6, 4e6, cpuA, gpuA)
	f.Fuzz(func(t *testing.T, states []byte, nowNs, cpuWork, gpuWork, cpuAlpha, gpuAlpha float64) {
		if len(states) == 0 || len(states) > 200 {
			return
		}
		nodes := make([]Node, len(states))
		for i, b := range states {
			if b&1 == 0 {
				nodes[i].CPU = knl
			} else {
				nodes[i].GPU = p100
			}
		}
		e, err := NewEngine(Cluster{NodeList: nodes}, Options{Policy: policyModelAware})
		if err != nil {
			t.Fatal(err)
		}
		work := make([]float64, len(e.uniqueRts))
		for k, rt := range e.uniqueRts {
			work[k], e.rtAlpha[k] = cpuWork, cpuAlpha
			if rt.Kind() == KindGPU {
				work[k], e.rtAlpha[k] = gpuWork, gpuAlpha
			}
		}
		after := math.Nextafter(nowNs, math.Inf(1))
		for i, b := range states {
			jobs := 1 + int(b>>4&3)
			pokeNode(e, i, func(ns *nodeState) {
				switch b >> 1 & 7 {
				case 0:
					ns.freeNs = nowNs - 1
				case 1:
					ns.freeNs = nowNs
				case 2:
					ns.freeNs = after
				case 3:
					ns.queue, ns.minReadyNs = make([]int, jobs), nowNs
				case 4:
					ns.queue, ns.minReadyNs = make([]int, jobs), after
				case 5:
					ns.wave = &waveState{active: make([]int, jobs), roundEndNs: nowNs, drainNs: nowNs}
				case 6:
					ns.wave = &waveState{active: make([]int, jobs), roundEndNs: nowNs - 1, drainNs: nowNs - 1 + float64(jobs-1)}
				default:
					ns.wave = &waveState{active: make([]int, jobs), roundEndNs: after, drainNs: max(after, nowNs+float64(jobs))}
					ns.queue = make([]int, e.rtCap[e.rtIdx[i]])
					ns.queuedWorkNs = float64(len(ns.queue)) * 1e6
				}
			})
		}
		checkIdleIndex(t, e)
		floor := math.Inf(1)
		for _, w := range work {
			floor = min(floor, nowNs+w)
		}
		scan := pickAcc{best: -1, fall: -1}
		e.walkModelAware(nowNs, work, -1, 0, &scan)
		got := pickAcc{best: -1, fall: -1}
		e.scanModelAware(nowNs, work, -1, 0, &got)
		if got.pick() != scan.pick() {
			t.Fatalf("indexed pick %d (floorNode %d), full scan %d", got.pick(), e.floorNode(nowNs, work, floor), scan.pick())
		}
	})
}

// FuzzEngineMatchesReference: every shortcut the engine takes on a wave
// leaves the run unchanged. The fuzzer builds a fleet of 1–3 KNL and 0–3
// P100 nodes, a policy, an arbiter and a trigger spec from four bytes, and
// 1–12 LSTM/DCGAN jobs from five bytes each: model, class and steps 0–4
// (at most 1 for a request), priority, a weight from 5e-324 to
// multijob.MaxWeight, the gap to the previous arrival, and a deadline or
// an SLO. The normal run is PlaceJobs. The reference run empties every
// wave memo before each step (placeMemoFree) and prices each CPU wave,
// a lone job's too, through the multi-job co-run (coRunRuntime). The two
// Results must be deeply equal and render identically.
func FuzzEngineMatchesReference(f *testing.F) {
	// Two lone-priority pairs of one model on one KNL node under the
	// priority arbiter: the second pair recurs the first's models with
	// the priorities swapped.
	f.Add(uint8(0), uint8(2), uint8(1), uint8(0), []byte{
		0x04, 0, 1, 0, 0, 0x04, 5, 1, 0, 0,
		0x04, 5, 1, 200, 0, 0x04, 0, 1, 0, 0,
	})
	// A mixed fleet under every trigger: multi-step training with
	// deadlines beside SLO-bound requests at the weight extremes.
	f.Add(uint8(7), uint8(2), uint8(1), uint8(15), []byte{
		0x10, 3, 4, 0, 0x03, 0x0d, 0, 5, 2, 0x01,
		0x02, 6, 3, 1, 0x30, 0x03, 1, 5, 0, 0x20,
		0x08, 1, 0, 4, 0x0f, 0x11, 7, 2, 0, 0x02,
		0x06, 2, 1, 3, 0x45, 0x0c, 0, 4, 9, 0x00,
	})
	// CPU-only lone waves under fair share, each arriving after the last
	// drained, with steps up to 4 and a zero-step job.
	f.Add(uint8(2), uint8(1), uint8(0), uint8(0), []byte{
		0x10, 0, 2, 0, 0, 0x01, 1, 6, 200, 0, 0x00, 2, 4, 250, 0x01,
	})
	// GPU-heavy spread with load migration and "none".
	f.Add(uint8(9), uint8(1), uint8(2), uint8(8), []byte{
		0x0c, 0, 1, 0, 0, 0x0d, 0, 1, 0, 0, 0x0c, 0, 1, 0, 0, 0x0d, 0, 1, 0, 0,
	})
	f.Add(uint8(4), uint8(0), uint8(2), uint8(16), []byte{0x08, 7, 5, 0, 0x02, 0x09, 0, 4, 1, 0x01})
	weights := []float64{0, 1, 0.5, 2.5, 5e-324, multijob.MaxWeight, 1e-3, 7}
	f.Fuzz(func(t *testing.T, fleet, policy, arbiter, trig uint8, jobs []byte) {
		n := min(len(jobs)/5, 12)
		if n == 0 {
			return
		}
		c := Cluster{Nodes: 1 + int(fleet%3), GPUs: int(fleet / 3 % 4)}
		spec := "off"
		switch m := trig % 17; m {
		case 0:
		case 16:
			spec = "none"
		default:
			var names []string
			for i, name := range triggerNames {
				if m>>i&1 == 1 {
					names = append(names, name)
				}
			}
			spec = strings.Join(names, "+")
		}
		opts := Options{
			Policy:  Policies()[int(policy)%len(Policies())],
			Arbiter: multijob.Arbiters()[int(arbiter)%len(multijob.Arbiters())],
			Preempt: spec,
		}
		w := make(Workload, n)
		arrival := 0.0
		for i := range w {
			b := jobs[5*i : 5*i+5]
			arrival += float64(b[3]) * 1e6
			j := JobSpec{
				Model:     []string{nn.LSTM, nn.DCGAN}[b[0]&1],
				ArrivalNs: arrival,
				Steps:     int(b[0]>>2) % 5,
				Priority:  int(b[1] % 8),
				Weight:    weights[b[2]%8],
			}
			if d := b[4] & 0xf; d > 0 {
				j.DeadlineNs = arrival + float64(d)*20e6
			}
			if b[0]&2 != 0 {
				j.Class, j.Steps = ClassInference, j.Steps%2
				j.SLONs = float64(b[4]>>4) * 10e6
			}
			w[i] = j
		}
		got, err := PlaceJobs(w, c, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := placeMemoFree(t, w, c, opts, func(e *Engine) {
			for _, ns := range e.nodes {
				if cpu, ok := ns.rt.(*cpuRuntime); ok {
					ns.rt = coRunRuntime{cpu}
				}
			}
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v on %+v: result differs from the reference run:\n%s\nwant:\n%s", opts, c, got.Render(), want.Render())
		}
		if got.Render() != want.Render() {
			t.Fatalf("%+v on %+v: render differs from the reference run", opts, c)
		}
	})
}

// coRunRuntime is a CPU runtime that prices every wave, a lone job's too,
// through the multi-job co-run: the reference twin of RunWave's lone-wave
// answer from the model's cached solo makespan.
type coRunRuntime struct{ *cpuRuntime }

func (r coRunRuntime) RunWave(jobs []WaveJob) (*WaveResult, error) { return r.coRun(jobs) }
