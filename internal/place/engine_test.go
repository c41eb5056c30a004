package place

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
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

// driveBatch pumps a canonical, arrival-ordered workload through an engine
// the way the batch wrapper does, returning the engine for inspection.
func driveBatch(t *testing.T, w Workload, c Cluster, opts Options) *Engine {
	t.Helper()
	return driveSlab(t, w, c, opts, 0)
}

// driveSlab is driveBatch on an engine whose job slab holds slab records.
func driveSlab(t *testing.T, w Workload, c Cluster, opts Options, slab int) *Engine {
	t.Helper()
	specs, err := w.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(c, opts, slab)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		if _, err := e.Arrive(sp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Drain(); err != nil {
		t.Fatal(err)
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
	if e.Admitted() != len(w) || e.Completed() != len(w) {
		t.Errorf("admitted %d, completed %d of %d jobs", e.Admitted(), e.Completed(), len(w))
	}
	if j := e.Job(len(w) - 1); j.StepsDone != 1 {
		t.Errorf("last job snapshot %+v has not retired its step", j)
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

// TestArriveDrainContract pins the event-level API to Arrive/Drain: a
// caller pumping NextEventNs/ProcessNextEvent itself (as perfbench's ledger
// does) under the same tie rule sees the same completions in the same order
// and seals the same report. Arrive rejects an arrival that regresses the
// clock, and Drain reports a stall when admitted work can never run.
func TestArriveDrainContract(t *testing.T) {
	for _, tc := range goldenConfigs() {
		specs, err := tc.w.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		sort.SliceStable(specs, func(a, b int) bool { return specs[a].ArrivalNs < specs[b].ArrivalNs })

		auto, err := NewEngine(tc.c, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		var want []int
		for _, sp := range specs {
			fins, err := auto.Arrive(sp)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			want = append(want, fins...)
		}
		fins, err := auto.Drain()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want = append(want, fins...)

		manual, err := NewEngine(tc.c, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		next := 0
		for manual.Completed() < len(specs) {
			eventNs, hasEvent := manual.NextEventNs()
			if next < len(specs) && (!hasEvent || specs[next].ArrivalNs <= eventNs) {
				ji, err := manual.Admit(specs[next])
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				if err := manual.PlaceAuto(ji, specs[next].ArrivalNs); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				next++
				continue
			}
			fins, err := manual.ProcessNextEvent()
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			got = append(got, fins...)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) || len(got) != len(specs) {
			t.Errorf("%s: event loop completes %v, Arrive/Drain %v", tc.name, got, want)
		}
		if a, m := auto.Finish().Render(), manual.Finish().Render(); a != m {
			t.Errorf("%s: event loop renders\n%s\nArrive/Drain renders\n%s", tc.name, m, a)
		}
	}

	e, err := NewEngine(Cluster{GPUs: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Arrive(JobSpec{Model: "lstm", ArrivalNs: 5e6}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Arrive(JobSpec{Model: "lstm", ArrivalNs: 1e6}); err == nil || !strings.Contains(err.Error(), "admission clock") {
		t.Errorf("Arrive accepted a regressing arrival: %v", err)
	}
	if _, err := e.Admit(JobSpec{Model: "dcgan", ArrivalNs: 6e6}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Drain(); err == nil || !strings.Contains(err.Error(), "stalled with 1 of 2 jobs done") {
		t.Errorf("Drain of an admitted but unplaced job = %v, want a stall", err)
	}
}

// TestJobSlot pins the job table's index mapping: segment k holds
// jobSegBase<<k records, so each segment starts where the previous ones'
// lengths sum to.
func TestJobSlot(t *testing.T) {
	for _, tc := range []struct{ ji, seg, off int }{
		{0, 0, 0},
		{63, 0, 63},
		{64, 1, 0},
		{191, 1, 127},
		{192, 2, 0},
		{1 << 20, 14, 64},
	} {
		if seg, off := jobSlot(tc.ji); seg != tc.seg || off != tc.off {
			t.Errorf("jobSlot(%d) = (%d, %d), want (%d, %d)", tc.ji, seg, off, tc.seg, tc.off)
		}
	}
}

// segmentEdgeWorkload is a multi-step, mixed training and inference
// workload of exactly n jobs, arrival-sorted. On two CPU and two GPU nodes
// under every preemption trigger, its runs of 191 jobs and more migrate
// jobs past the job table's first segment.
func segmentEdgeWorkload(tb testing.TB, n int) Workload {
	tb.Helper()
	train, err := SyntheticSteps(n-n/3, 5, nn.Names(), 50e6, 8)
	if err != nil {
		tb.Fatal(err)
	}
	return train.Merge(MustSyntheticInference(n/3, 5, nn.Names(), 100e6, 50e6))
}

// TestJobTableSegmentEdges runs workloads whose last job sits just before,
// on and just after a job-table segment edge. Every job's live outcome must
// equal what Finish and PlaceJobs report, the migration and checkpoint
// state of jobs past the first segment must survive, and Result.Jobs must
// share nothing with the engine.
func TestJobTableSegmentEdges(t *testing.T) {
	c := Cluster{Nodes: 2, GPUs: 2}
	opts := Options{Policy: "model-aware", Preempt: "all"}
	for _, n := range []int{63, 64, 65, 191, 192, 193} {
		n := n
		t.Run(fmt.Sprintf("jobs=%d", n), func(t *testing.T) {
			t.Parallel()
			w := segmentEdgeWorkload(t, n)
			e := driveBatch(t, w, c, opts)
			res := e.Finish()
			want, err := PlaceJobs(w, c, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := res.Render(), want.Render(); got != want {
				t.Fatalf("engine render differs from PlaceJobs:\n%s\nwant:\n%s", got, want)
			}
			if len(res.Jobs) != n {
				t.Fatalf("%d jobs, want %d", len(res.Jobs), n)
			}
			var migrated, resumed int
			for ji := range res.Jobs {
				if got := e.Job(ji); got != res.Jobs[ji] || got != want.Jobs[ji] {
					t.Fatalf("job %d: Engine.Job %+v, Finish %+v, PlaceJobs %+v",
						ji, got, res.Jobs[ji], want.Jobs[ji])
				}
				if p := res.Jobs[ji]; ji >= jobSegBase && p.Path != "" {
					migrated++
				}
				if p := res.Jobs[ji]; ji >= jobSegBase && p.DisruptionNs > 0 {
					resumed++
				}
			}
			if n > 2*jobSegBase && (migrated == 0 || resumed == 0) {
				t.Fatalf("past the first segment %d jobs migrated and %d resumed from a checkpoint, want both > 0",
					migrated, resumed)
			}
			// PlaceJobs sizes its table to the workload: one slab, no
			// segment.
			be, _, err := runBatch(w, c, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(be.jobSlab) != n || slices.ContainsFunc(be.jobSegs[:], func(s []jobRec) bool { return s != nil }) {
				t.Fatalf("PlaceJobs engine has a %d-record slab and segments %v, want %d records and none",
					len(be.jobSlab), segLens(be), n)
			}
			// A slab a segment and one job short of, one short of and one
			// past the job count (PlaceJobs's own, n, is the run above): the
			// jobs past the slab land in segments and report the same.
			for _, slab := range []int{n - jobSegBase - 1, n - 1, n + 1} {
				if slab < 0 {
					continue
				}
				se := driveSlab(t, w, c, opts, slab)
				if got := se.Finish().Render(); got != want.Render() {
					t.Fatalf("slab %d: engine render differs from PlaceJobs:\n%s\nwant:\n%s", slab, got, want.Render())
				}
				for ji := 0; ji < n; ji++ {
					if got := se.Job(ji); got != want.Jobs[ji] {
						t.Fatalf("slab %d job %d: Engine.Job %+v, PlaceJobs %+v", slab, ji, got, want.Jobs[ji])
					}
				}
				if used := se.jobSegs[0] != nil; used != (n > slab) {
					t.Fatalf("slab %d of %d jobs: segments %v", slab, n, segLens(se))
				}
			}
			before := e.Job(n - 1)
			res.Jobs[n-1].Name = "mutated"
			res.Jobs[n-1].Preemptions += 7
			res.Jobs[n-1].Path = "n99/gpu"
			if after := e.Job(n - 1); after != before {
				t.Fatalf("mutating Result.Jobs changed Engine.Job: %+v, want %+v", after, before)
			}
		})
	}
}

// segLens lists the lengths of e's allocated job-table segments.
func segLens(e *Engine) []int {
	var lens []int
	for _, seg := range e.jobSegs {
		if seg != nil {
			lens = append(lens, len(seg))
		}
	}
	return lens
}

// TestPlaceJobsUnsortedInputOrder: PlaceJobs of a workload that is not
// arrival-sorted, with no job named, labels each job by its input index
// and lists the outcomes in input order, matching a stream of the
// canonical specs in stable arrival order (what a pipeline replay of
// Workload.Canonical does) with its outcomes put back in input order.
func TestPlaceJobsUnsortedInputOrder(t *testing.T) {
	sorted, err := SyntheticSteps(40, 9, []string{"LSTM", "DC-GAN", "resnet", "inception"}, 20e6, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := make(Workload, len(sorted))
	for i := range w {
		// Reverse the stream, and clamp pairs onto one instant so the
		// input index breaks arrival ties.
		j := sorted[len(sorted)-1-i]
		j.Name = ""
		j.ArrivalNs = float64(int(j.ArrivalNs) / 40e6 * 40e6)
		w[i] = j
	}
	if slices.IsSortedFunc(w, func(a, b JobSpec) int { return cmp.Compare(a.ArrivalNs, b.ArrivalNs) }) {
		t.Fatal("workload is arrival-sorted")
	}
	c, opts := Cluster{Nodes: 2, GPUs: 1}, Options{Policy: "model-aware", Preempt: "all"}
	got, err := PlaceJobs(w, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range got.Jobs {
		model, _ := nn.Resolve(w[i].Model)
		if wantName := fmt.Sprintf("%s#%d", model, i); p.Name != wantName || p.ArrivalNs != w[i].ArrivalNs {
			t.Fatalf("Jobs[%d] is %s arriving at %v, want %s arriving at %v",
				i, p.Name, p.ArrivalNs, wantName, w[i].ArrivalNs)
		}
	}

	specs, err := w.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(specs[a].ArrivalNs, specs[b].ArrivalNs) })
	e, err := NewEngine(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range order {
		if _, err := e.Arrive(specs[idx]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	ref := e.Finish()
	if ref.Preemptions == 0 {
		t.Fatal("no preemption: the stream exercises too little")
	}
	jobs := make([]PlacedJob, len(ref.Jobs))
	for k, idx := range order {
		jobs[idx] = ref.Jobs[k]
	}
	ref.Jobs = jobs
	if got.Render() != ref.Render() {
		t.Fatalf("PlaceJobs render differs from the stream's in input order:\n%s\nwant:\n%s", got.Render(), ref.Render())
	}
}

// recordingRuntime is a NodeRuntime that keeps a copy of every wave it is
// asked to price.
type recordingRuntime struct {
	NodeRuntime
	waves *[][]WaveJob
}

func (r recordingRuntime) RunWave(jobs []WaveJob) (*WaveResult, error) {
	*r.waves = append(*r.waves, slices.Clone(jobs))
	return r.NodeRuntime.RunWave(jobs)
}

// TestAdmitEchoesSpec: every JobSpec field reaches the run. Engine.Job
// echoes the name (or the default label), the resolved model, arrival,
// deadline, step count (0 meaning 1), effective class and SLO, and every
// wave that prices a job carries its priority, weight and class.
func TestAdmitEchoesSpec(t *testing.T) {
	specs := []JobSpec{
		{Name: "train", Model: "LSTM", ArrivalNs: 0, Priority: 3, Weight: 2.5, DeadlineNs: 9e9, Steps: 3,
			Class: ClassTraining},
		{Model: "dc-gan", ArrivalNs: 1e6, Priority: -2, Weight: 0.5},
		{Name: "request", Model: "lstm", ArrivalNs: 2e6, Priority: 1, Weight: 4, DeadlineNs: 8e9,
			Class: ClassInference, SLONs: 50e6},
		{Model: "resnet", ArrivalNs: 2e6, Steps: 2, DeadlineNs: 2e6},
		{Model: "inception", ArrivalNs: 3e6, Class: ClassInference},
	}
	type echo struct {
		name, model string
		steps       int
		class       string
	}
	want := []echo{
		{"train", nn.LSTM, 3, ClassTraining},
		{nn.DCGAN + "#1", nn.DCGAN, 1, ClassTraining},
		{"request", nn.LSTM, 1, ClassInference},
		{nn.ResNet50 + "#3", nn.ResNet50, 2, ClassTraining},
		{nn.InceptionV3 + "#4", nn.InceptionV3, 1, ClassInference},
	}
	for _, c := range []Cluster{{Nodes: 1}, {GPUs: 1}} {
		e, err := NewEngine(c, Options{Policy: "model-aware", Arbiter: "priority", Preempt: "all"})
		if err != nil {
			t.Fatal(err)
		}
		var waves [][]WaveJob
		for _, ns := range e.nodes {
			ns.rt = recordingRuntime{NodeRuntime: ns.rt, waves: &waves}
		}
		for _, sp := range specs {
			if _, err := e.Arrive(sp); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		for ji, sp := range specs {
			p, w := e.Job(ji), want[ji]
			if p.Name != w.name || p.Model != w.model || p.ArrivalNs != sp.ArrivalNs ||
				p.DeadlineNs != sp.DeadlineNs || p.Steps != w.steps || p.StepsDone != w.steps ||
				p.Class != w.class || p.SLONs != sp.SLONs {
				t.Errorf("%v: job %d outcome %+v does not echo spec %+v", c, ji, p, sp)
			}
			priced := 0
			for _, wave := range waves {
				for _, wj := range wave {
					if wj.Name != p.Name {
						continue
					}
					priced++
					wantClass := ""
					if sp.Inference() {
						wantClass = ClassInference
					}
					if wj.Priority != sp.Priority || wj.Weight != sp.Weight || wj.Class != wantClass {
						t.Errorf("%v: job %d priced as %+v, want priority %d, weight %v, class %q",
							c, ji, wj, sp.Priority, sp.Weight, wantClass)
					}
				}
			}
			if priced == 0 {
				t.Errorf("%v: job %d (%s) priced in no wave", c, ji, p.Name)
			}
		}
	}
}

// admitSpecs are n named, canonical-model one-step training specs 10 ms
// apart: the specs Admit takes without allocating anything but its job
// table.
func admitSpecs(n int) []JobSpec {
	specs := make([]JobSpec, n)
	models := []string{nn.LSTM, nn.DCGAN}
	for i := range specs {
		m := models[i%len(models)]
		specs[i] = JobSpec{Name: fmt.Sprintf("%s#%d", m, i), Model: m, ArrivalNs: float64(i) * 10e6}
	}
	return specs
}

// TestAdmitAllocations is admission's allocation contract: with
// observability off, admitting n named, canonical-model specs allocates
// only the job table's segments — at most 1+⌈log2(n/jobSegBase)⌉ objects.
func TestAdmitAllocations(t *testing.T) {
	const n = 10_000
	specs := admitSpecs(n)
	e, err := NewEngine(Cluster{Nodes: 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{nn.LSTM, nn.DCGAN} {
		if _, err := nn.Resolve(m); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, sp := range specs {
		if _, err := e.Admit(sp); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	limit := 1 + int(math.Ceil(math.Log2(float64(n)/jobSegBase)))
	if got := after.Mallocs - before.Mallocs; got > uint64(limit) {
		t.Fatalf("admitting %d jobs made %d allocations, want at most %d", n, got, limit)
	}
	if e.Admitted() != n {
		t.Fatalf("admitted %d, want %d", e.Admitted(), n)
	}
}
