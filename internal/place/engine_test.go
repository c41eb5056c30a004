package place

import (
	"math"
	"testing"

	"opsched/internal/nn"
	"opsched/internal/obs"
)

// goldenConfigs are the byte-equivalence fixtures: every preempt golden
// scenario — a firing priority preemption, a firing load-trigger
// migration, and a multi-step mixed-fleet synthetic under "all" — plus a
// plain GPU-fleet stream big enough to wave-pack and a multi-step binpack
// stream on a small GPU fleet.
func goldenConfigs() []struct {
	name string
	w    Workload
	c    Cluster
	opts Options
} {
	migr := Workload{
		{Name: "a", Model: "lstm", ArrivalNs: 0, Steps: 4},
		{Name: "b", Model: "lstm", ArrivalNs: 0, Steps: 4},
		{Name: "late", Model: "lstm", ArrivalNs: 40e6, Steps: 1},
	}
	preW, preC := preemptScenario()
	synth, err := SyntheticSteps(10, 11, []string{nn.LSTM, nn.DCGAN}, 1e6, 3)
	if err != nil {
		panic(err)
	}
	packed, err := SyntheticSteps(48, 21, []string{nn.LSTM, nn.DCGAN, nn.ResNet50}, 2e6, 4)
	if err != nil {
		panic(err)
	}
	return []struct {
		name string
		w    Workload
		c    Cluster
		opts Options
	}{
		{"priority-preemption", preW, preC,
			Options{Policy: "model-aware", Arbiter: "priority", Preempt: "priority"}},
		{"load-migration", migr, Cluster{Nodes: 2},
			Options{Policy: "binpack", Preempt: "load"}},
		{"all-triggers-mixed", synth, Cluster{Nodes: 1, GPUs: 1},
			Options{Policy: "model-aware", Preempt: "all"}},
		{"gpu-stream", MustSynthetic(24, 7, []string{nn.LSTM, nn.DCGAN}, 1e5),
			Cluster{GPUs: 6}, Options{Policy: "model-aware"}},
		{"binpack", packed, Cluster{GPUs: 4}, Options{Policy: "binpack"}},
	}
}

// TestWaveMemoEngineByteEquivalence: disabling the wave memo changes
// nothing but speed — every golden config renders byte-identically with
// NoWaveMemo set.
func TestWaveMemoEngineByteEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each golden config twice")
	}
	for _, tc := range goldenConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			on, err := PlaceJobs(tc.w, tc.c, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			opts := tc.opts
			opts.NoWaveMemo = true
			off, err := PlaceJobs(tc.w, tc.c, opts)
			if err != nil {
				t.Fatal(err)
			}
			if on.Render() != off.Render() {
				t.Errorf("memoized render differs from memo-free:\n%s\nvs\n%s", on.Render(), off.Render())
			}
		})
	}
}

// driveBatch pumps a canonical workload through an engine the way the
// batch wrapper does, returning the engine for inspection.
func driveBatch(t *testing.T, w Workload, c Cluster, opts Options) *Engine {
	t.Helper()
	specs, err := w.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for e.Completed() < len(specs) {
		eventNs, hasEvent := e.NextEventNs()
		if next < len(specs) {
			sp := specs[next]
			if !hasEvent || sp.ArrivalNs <= eventNs {
				next++
				ji, err := e.Admit(sp)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.PlaceAuto(ji, sp.ArrivalNs); err != nil {
					t.Fatal(err)
				}
				continue
			}
		}
		if !hasEvent {
			t.Fatalf("stalled with %d of %d done", e.Completed(), len(specs))
		}
		if _, err := e.ProcessNextEvent(); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestQueueAggregatesAndMemoCounters drives a wave-packing stream and
// checks the introspection surfaces: events were retired, the fleet-wide
// queue aggregates drain to zero at completion, and the memo counters show
// real hits on a recurring stream (and stay zero when disabled).
func TestQueueAggregatesAndMemoCounters(t *testing.T) {
	// A uniform replay-shaped stream — alternating models, equal priority
	// and weight — so wave compositions genuinely recur fleet-wide.
	w := make(Workload, 30)
	for i := range w {
		w[i] = JobSpec{Model: []string{"lstm", "dcgan"}[i%2], ArrivalNs: float64(i) * 1e5, Steps: 1}
	}
	c := Cluster{GPUs: 6}
	reg := obs.NewRegistry()
	e := driveBatch(t, w, c, Options{Policy: "model-aware", Obs: &obs.Observer{Metrics: reg}})
	if reg.Counter("opsched_engine_events_total", "").Value() == 0 {
		t.Error("no events retired")
	}
	if e.Admitted() != len(w) || e.Completed() != len(w) || e.Nodes() != 6 {
		t.Errorf("admitted %d, completed %d of %d jobs on %d nodes", e.Admitted(), e.Completed(), len(w), e.Nodes())
	}
	if e.Policy() != "model-aware" || e.Arbiter() != "fair" {
		t.Errorf("engine reports policy %q arbiter %q", e.Policy(), e.Arbiter())
	}
	if j := e.Job(len(w) - 1); j.StepsDone != 1 || e.Spec(len(w)-1).Model != j.Model {
		t.Errorf("last job snapshot %+v disagrees with its spec", j)
	}
	if e.queuedJobs != 0 || e.queuedWorkNs != 0 {
		t.Errorf("fleet still aggregates %d jobs / %v ns after the run drained", e.queuedJobs, e.queuedWorkNs)
	}
	hits, misses := e.WaveMemoStats()
	if hits == 0 || misses == 0 {
		t.Errorf("memo counters hits=%d misses=%d on a recurring stream, want both positive", hits, misses)
	}

	off := driveBatch(t, w, c, Options{Policy: "model-aware", NoWaveMemo: true})
	if h, m := off.WaveMemoStats(); h != 0 || m != 0 {
		t.Errorf("NoWaveMemo engine reports hits=%d misses=%d, want zeros", h, m)
	}
}

// TestQueueGaugesMidRun: with jobs staged but no event retired, the
// fleet-wide queue gauges equal a direct rescan of every node's queue.
func TestQueueGaugesMidRun(t *testing.T) {
	reg := obs.NewRegistry()
	e, err := NewEngine(Cluster{GPUs: 6}, Options{Policy: "spread", Obs: &obs.Observer{Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range MustSynthetic(12, 5, []string{nn.LSTM, nn.DCGAN}, 0) {
		ji, err := e.Admit(sp)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if err := e.PlaceAuto(ji, sp.ArrivalNs); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	jobs, workNs := 0, 0.0
	for _, ns := range e.nodes {
		jobs += len(ns.queue)
		workNs += ns.queuedWorkNs
	}
	if jobs == 0 {
		t.Fatal("nothing staged — rebuild the scenario")
	}
	depth := reg.Gauge("opsched_engine_queue_depth", "").Value()
	work := reg.Gauge("opsched_engine_queued_work_ns", "").Value()
	if depth != float64(jobs) || math.Abs(work-workNs) > 1e-6*workNs {
		t.Errorf("queue gauges (%v jobs, %v ns), rescan says (%d, %v)", depth, work, jobs, workNs)
	}
}

// TestViewsIntoLength: ViewsInto rejects a slice that does not cover the
// fleet.
func TestViewsIntoLength(t *testing.T) {
	e, err := NewEngine(Cluster{GPUs: 8}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ji, err := e.Admit(JobSpec{Model: "lstm"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Error("ViewsInto accepted a wrong-length slice")
		}
	}()
	e.ViewsInto(ji, 0, make([]NodeView, 3))
}
