package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"opsched/internal/nn"
	"opsched/internal/place"
	"opsched/internal/stats"
)

// equivCases are the workload/cluster/options combinations the batch
// equivalence gate runs: homogeneous and heterogeneous fleets, every
// policy, and preemption both disarmed and firing.
func equivCases() []struct {
	name string
	w    place.Workload
	c    place.Cluster
	o    place.Options
} {
	syn := place.MustSynthetic(24, 7, []string{"lstm", "resnet-50", "dcgan"}, 3e6)
	steps, err := place.SyntheticSteps(16, 11, []string{"lstm", "inception-v3"}, 4e6, 3)
	if err != nil {
		panic(err)
	}
	preemptW := place.Workload{
		{Name: "long", Model: "lstm", ArrivalNs: 0, Priority: 0, Steps: 5},
		{Name: "urgent", Model: "lstm", ArrivalNs: 40e6, Priority: 5, Steps: 1, DeadlineNs: 120e6},
	}
	return []struct {
		name string
		w    place.Workload
		c    place.Cluster
		o    place.Options
	}{
		{"spread-cpu", syn, place.Cluster{Nodes: 4}, place.Options{}},
		{"binpack-hetero", syn, place.Cluster{Nodes: 2, GPUs: 2}, place.Options{Policy: "binpack"}},
		{"binpack-lstm-resnet", place.MustSynthetic(24, 13, []string{"lstm", "resnet-50"}, 2e6),
			place.Cluster{Nodes: 2, GPUs: 1}, place.Options{Policy: "binpack"}},
		{"model-aware-gpu", syn, place.Cluster{GPUs: 3}, place.Options{Policy: "model-aware"}},
		{"steps-preempt-none", steps, place.Cluster{Nodes: 2, GPUs: 1}, place.Options{Preempt: "none"}},
		{"steps-preempt-all", steps, place.Cluster{Nodes: 2, GPUs: 1}, place.Options{Policy: "binpack", Preempt: "all"}},
		{"priority-trigger-fires", preemptW, place.Cluster{Nodes: 1},
			place.Options{Policy: "model-aware", Arbiter: "priority", Preempt: "priority"}},
	}
}

// replayWorkload replays a closed workload through the pipeline the way a
// caller holding a job slice does: canonicalized, so default labels match
// place.PlaceJobs's, and streamed unpaced in slice order. The workload must
// be arrival-sorted, as every generator's output is; stream order is then
// input order, and the Result lists jobs the way PlaceJobs does.
func replayWorkload(ctx context.Context, w place.Workload, c place.Cluster, o place.Options) (*place.Result, error) {
	specs, err := w.Canonical()
	if err != nil {
		return nil, err
	}
	if !sort.SliceIsSorted(specs, func(a, b int) bool { return specs[a].ArrivalNs < specs[b].ArrivalNs }) {
		return nil, errors.New("replayWorkload: workload is not arrival-sorted")
	}
	return Replay(ctx, Config{Cluster: c, Options: o}, &sliceSource{specs: specs}, 0)
}

// TestBatchEquivalence is the pipeline's contract: replaying a closed
// workload through it renders byte-identically to the
// batch engine, with and without preemption triggers firing.
func TestBatchEquivalence(t *testing.T) {
	for _, tc := range equivCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			want, err := place.PlaceJobs(tc.w, tc.c, tc.o)
			if err != nil {
				t.Fatal(err)
			}
			got, err := replayWorkload(context.Background(), tc.w, tc.c, tc.o)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := got.Render(), want.Render(); g != w {
				t.Errorf("pipeline render diverges from batch engine:\n--- batch ---\n%s\n--- pipeline ---\n%s", w, g)
			}
		})
	}
}

// TestBatchEquivalencePreemptionScenario double-checks the firing case
// actually preempted — an equivalence between two runs that never cut a
// wave would not gate the preemptive path.
func TestBatchEquivalencePreemptionScenario(t *testing.T) {
	cs := equivCases()
	tc := cs[len(cs)-1]
	res, err := replayWorkload(context.Background(), tc.w, tc.c, tc.o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Preemptions == 0 || res.TriggerFirings == 0 {
		t.Fatalf("scenario expected to preempt: %d preemptions, %d firings", res.Preemptions, res.TriggerFirings)
	}
}

// TestRunBatchDeterministic: a closed batch replayed through the
// concurrent pipeline renders identical bytes on every run.
func TestRunBatchDeterministic(t *testing.T) {
	w := place.MustSynthetic(30, 3, nil, 2e6)
	c := place.Cluster{Nodes: 3, GPUs: 1}
	first, err := replayWorkload(context.Background(), w, c, place.Options{Policy: "binpack"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		again, err := replayWorkload(context.Background(), w, c, place.Options{Policy: "binpack"})
		if err != nil {
			t.Fatal(err)
		}
		if again.Render() != first.Render() {
			t.Fatalf("run %d rendered differently", i+2)
		}
	}
}

// TestRunBatchErrors: Replay surfaces the batch API's cluster and option
// validation failures before it reads the source.
func TestRunBatchErrors(t *testing.T) {
	ctx := context.Background()
	src := &sliceSource{specs: []place.JobSpec{{Model: "lstm"}}}
	if _, err := Replay(ctx, Config{Cluster: place.Cluster{}}, src, 0); err == nil {
		t.Error("empty cluster accepted")
	}
	if _, err := Replay(ctx, Config{Cluster: place.Cluster{Nodes: 1}, Options: place.Options{Policy: "nope"}}, src, 0); err == nil {
		t.Error("unknown policy accepted")
	}
	if src.i != 0 {
		t.Errorf("a rejected configuration read %d specs from the source", src.i)
	}
}

// TestOutOfOrderArrivalsClamped: a live stream may report arrivals late;
// admission pulls them forward to the admission clock instead of crashing
// the engine, and counts the clamps.
func TestOutOfOrderArrivalsClamped(t *testing.T) {
	p, err := New(context.Background(), Config{Cluster: place.Cluster{Nodes: 2}})
	if err != nil {
		t.Fatal(err)
	}
	arrivals := []float64{0, 5e6, 2e6, 8e6, 1e6}
	for _, at := range arrivals {
		if err := p.Submit(place.JobSpec{Model: "lstm", ArrivalNs: at}); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	res, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != len(arrivals) {
		t.Fatalf("got %d jobs, want %d", len(res.Jobs), len(arrivals))
	}
	s := p.Snapshot()
	if s.ClampedArrivals != 2 {
		t.Errorf("clamped %d arrivals, want 2 (the 2e6 and 1e6 regressions)", s.ClampedArrivals)
	}
	// Clamped jobs run at the clock they were pulled forward to.
	if got := res.Jobs[2].ArrivalNs; got != 5e6 {
		t.Errorf("job 2 clamped to %v, want 5e6", got)
	}
	for i, j := range res.Jobs {
		if j.FinishNs <= 0 || j.StepsDone != j.Steps {
			t.Errorf("job %d did not complete: %+v", i, j)
		}
	}
}

// TestInvalidSpecRejectedNotFatal: a bad submission is counted and
// dropped; the stream keeps flowing.
func TestInvalidSpecRejectedNotFatal(t *testing.T) {
	p, err := New(context.Background(), Config{Cluster: place.Cluster{Nodes: 1}})
	if err != nil {
		t.Fatal(err)
	}
	subs := []place.JobSpec{
		{Model: "lstm", ArrivalNs: 0},
		{Model: "no-such-model", ArrivalNs: 1e6},
		{Model: "lstm", ArrivalNs: -3},
		{Model: "lstm", ArrivalNs: 2e6},
	}
	for _, j := range subs {
		if err := p.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	res, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 2 {
		t.Fatalf("got %d placed jobs, want 2", len(res.Jobs))
	}
	s := p.Snapshot()
	if s.Submitted != 4 || s.Rejected != 2 || s.Completed != 2 {
		t.Errorf("snapshot counts submitted=%d rejected=%d completed=%d, want 4/2/2",
			s.Submitted, s.Rejected, s.Completed)
	}
}

// checkDrained requires every count and both means of a drained
// pipeline's snapshot to equal the sealed result's exactly.
func checkDrained(t *testing.T, s Snapshot, res *place.Result) {
	t.Helper()
	for _, c := range []struct {
		what       string
		live, want float64
	}{
		{"completed", float64(s.Completed), float64(len(res.Jobs))},
		{"in flight", float64(s.InFlight), 0},
		{"preemptions", float64(s.Preemptions), float64(res.Preemptions)},
		{"migrations", float64(s.Migrations), float64(res.Migrations)},
		{"inference completed", float64(s.InferCompleted), float64(res.InferenceJobs)},
		{"SLO met", float64(s.InferSLOMet), float64(res.SLOMet)},
		{"SLO total", float64(s.InferSLOTotal), float64(res.SLOTotal)},
		{"mean JCT", s.MeanJCTNs, res.MeanJCTNs},
		{"mean queue", s.MeanQueueNs, res.MeanQueueNs},
	} {
		if c.live != c.want {
			t.Errorf("live %s = %v, sealed result says %v", c.what, c.live, c.want)
		}
	}
}

// TestSnapshotMatchesSealedResult: at drain, the live snapshot equals the
// sealed Result — one metric definition, batch or streaming — on every
// equivalence workload and on a preemptive training+inference mix. Counts
// and means match exactly, since both read the engine's one completion
// tally, and so do the nearest-rank percentiles.
func TestSnapshotMatchesSealedResult(t *testing.T) {
	type run struct {
		name string
		w    place.Workload
		c    place.Cluster
		o    place.Options
	}
	var runs []run
	for _, tc := range equivCases() {
		runs = append(runs, run{tc.name, tc.w, tc.c, tc.o})
	}
	train, err := place.SyntheticSteps(40, 3, nn.Names(), 50e6, 6)
	if err != nil {
		t.Fatal(err)
	}
	mix := train.Merge(place.MustSyntheticInference(30, 3, nn.Names(), 60e6, 50e6))
	runs = append(runs, run{"train-infer-mix", mix, place.Cluster{Nodes: 2, GPUs: 2},
		place.Options{Policy: "model-aware", Preempt: "all"}})
	for _, tc := range runs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			specs, err := tc.w.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			p, err := New(context.Background(), Config{Cluster: tc.c, Options: tc.o})
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range specs {
				if err := p.Submit(j); err != nil {
					t.Fatal(err)
				}
			}
			p.Close()
			res, err := p.Wait()
			if err != nil {
				t.Fatal(err)
			}
			s := p.Snapshot()
			checkDrained(t, s, res)
			for _, c := range []struct {
				what       string
				live, want float64
			}{
				{"inference p50", s.InferP50Ns, res.InferP50JCTNs},
				{"inference p99", s.InferP99Ns, res.InferP99JCTNs},
				{"queue p50", s.QueueP50Ns, res.QueuePercentileNs(0.50)},
				{"queue p95", s.QueueP95Ns, res.QueuePercentileNs(0.95)},
				{"queue p99", s.QueueP99Ns, res.QueuePercentileNs(0.99)},
			} {
				if c.live != c.want {
					t.Errorf("live %s = %v, sealed result says %v", c.what, c.live, c.want)
				}
			}
			if tc.name == "train-infer-mix" && (res.InferenceJobs == 0 || res.SLOTotal == 0 || res.Preemptions == 0) {
				t.Errorf("mix exercises too little: %d inference jobs, %d with an SLO, %d preemptions",
					res.InferenceJobs, res.SLOTotal, res.Preemptions)
			}
		})
	}
}

// TestHistogramRegimeMatchesSealedResult replays more jobs than a latency
// distribution keeps exact samples of (exactSampleCap), so the drained
// snapshot ranks histograms, while one goroutine polls Snapshot
// throughout (run it under -race: the poller copies the exact samples
// after releasing the lock while the pipeline appends). Every count and
// both means must still equal the sealed Result exactly, and every live
// percentile must lie within the documented half-bucket bound of the
// sealed nearest-rank value.
func TestHistogramRegimeMatchesSealedResult(t *testing.T) {
	const n = 10_000
	p, err := New(context.Background(), Config{Cluster: place.Cluster{Nodes: 4}})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	polled := make(chan int)
	go func() {
		polls, prev := 0, Snapshot{}
		defer func() { polled <- polls }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := p.Snapshot()
			polls++
			if s.Completed < prev.Completed || s.Completed+s.InFlight != s.Placed ||
				s.QueueP50Ns > s.QueueP95Ns || s.QueueP95Ns > s.QueueP99Ns ||
				s.JCTP50Ns > s.JCTP95Ns || s.JCTP95Ns > s.JCTP99Ns {
				t.Errorf("inconsistent live snapshot %+v after %+v", s, prev)
				return
			}
			prev = s
		}
	}()
	src := &genSource{n: n, gapNs: 10e6, models: []string{"lstm", "dcgan"}}
	if err := p.Feed(src, 0); err != nil {
		t.Fatal(err)
	}
	p.Close()
	res, err := p.Wait()
	close(stop)
	if polls := <-polled; polls == 0 {
		t.Error("the poller never read a snapshot")
	}
	if err != nil {
		t.Fatal(err)
	}
	if p.met.queue.hist == nil || p.met.jct.hist == nil {
		t.Fatalf("%d completions left the distributions exact", n)
	}
	s := p.Snapshot()
	if len(res.Jobs) != n {
		t.Fatalf("sealed %d of %d jobs", len(res.Jobs), n)
	}
	checkDrained(t, s, res)
	jcts := make([]float64, len(res.Jobs))
	for i, j := range res.Jobs {
		jcts[i] = j.JCTNs()
	}
	sort.Float64s(jcts)
	bound := math.Pow(10, 1/(2*float64(histBucketsPerDecade))) - 1
	for _, c := range []struct {
		what       string
		live, want float64
	}{
		{"queue p50", s.QueueP50Ns, res.QueuePercentileNs(0.50)},
		{"queue p95", s.QueueP95Ns, res.QueuePercentileNs(0.95)},
		{"queue p99", s.QueueP99Ns, res.QueuePercentileNs(0.99)},
		{"JCT p50", s.JCTP50Ns, stats.NearestRank(jcts, 0.50)},
		{"JCT p95", s.JCTP95Ns, stats.NearestRank(jcts, 0.95)},
		{"JCT p99", s.JCTP99Ns, stats.NearestRank(jcts, 0.99)},
		{"inference p50", s.InferP50Ns, res.InferP50JCTNs},
		{"inference p99", s.InferP99Ns, res.InferP99JCTNs},
	} {
		if c.want == 0 {
			if c.live != 0 {
				t.Errorf("live %s = %v, sealed nearest rank is 0", c.what, c.live)
			}
			continue
		}
		if rel := math.Abs(c.live-c.want) / c.want; rel > bound+1e-9 {
			t.Errorf("live %s = %v against sealed %v: relative error %.4f past the %.4f bound",
				c.what, c.live, c.want, rel, bound)
		}
	}
}

// TestTickRejectsInvalidTimes: Tick refuses NaN, ±Inf, negative times and
// times past place.MaxTimeNs, and a refused tick leaves the stream as it
// was: a valid job submitted after it reports exactly as it does with no
// tick. Accepted, a +Inf tick clamped the next arrival to +Inf and stalled
// the drain, 1e300 clamped it past the ceiling, and NaN retired every
// pending event at once.
func TestTickRejectsInvalidTimes(t *testing.T) {
	run := func(tick func(*Pipeline) error) (string, error) {
		t.Helper()
		p, err := New(context.Background(), Config{Cluster: place.Cluster{Nodes: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Submit(place.JobSpec{Name: "a", Model: "lstm"}); err != nil {
			t.Fatal(err)
		}
		tickErr := tick(p)
		if err := p.Submit(place.JobSpec{Name: "b", Model: "dcgan", ArrivalNs: 1e6}); err != nil {
			t.Fatal(err)
		}
		p.Close()
		res, err := p.Wait()
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
		return res.Render(), tickErr
	}
	want, _ := run(func(*Pipeline) error { return nil })
	for _, bad := range []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), -1, 1e300,
		math.Nextafter(place.MaxTimeNs, math.Inf(1)),
	} {
		got, err := run(func(p *Pipeline) error { return p.Tick(bad) })
		if err == nil {
			t.Errorf("Tick(%v) accepted", bad)
		}
		if got != want {
			t.Errorf("after a refused Tick(%v) the report changed:\n%s\nwant:\n%s", bad, got, want)
		}
	}
	for _, ok := range []float64{0, place.MaxTimeNs} {
		if _, err := run(func(p *Pipeline) error { return p.Tick(ok) }); err != nil {
			t.Errorf("Tick(%v) refused: %v", ok, err)
		}
	}
}

// TestLiveSnapshotsDuringFlight: SnapshotEvery publishes deterministic
// in-flight snapshots — completions counted up, monotone virtual time.
func TestLiveSnapshotsDuringFlight(t *testing.T) {
	w := place.MustSynthetic(20, 5, []string{"lstm"}, 2e6)
	sort.SliceStable(w, func(a, b int) bool { return w[a].ArrivalNs < w[b].ArrivalNs })
	snaps := make(chan Snapshot, 64)
	p, err := New(context.Background(), Config{
		Cluster:       place.Cluster{Nodes: 2},
		SnapshotEvery: 5,
		OnSnapshot:    func(s Snapshot) { snaps <- s },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range w {
		if err := p.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	if _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	close(snaps)
	var seen []Snapshot
	for s := range snaps {
		seen = append(seen, s)
	}
	if len(seen) != len(w)/5 {
		t.Fatalf("got %d snapshots, want %d", len(seen), len(w)/5)
	}
	prevDone, prevNow := 0, -1.0
	for i, s := range seen {
		if s.Completed != (i+1)*5 {
			t.Errorf("snapshot %d at %d completions, want %d", i, s.Completed, (i+1)*5)
		}
		if s.Completed < prevDone || s.VirtualNowNs < prevNow {
			t.Errorf("snapshot %d regressed: %+v", i, s)
		}
		prevDone, prevNow = s.Completed, s.VirtualNowNs
	}
}

// TestTickRetiresWorkWithoutArrivals: the live-serving mode — a Tick
// advances the virtual clock so completions surface between submissions.
func TestTickRetiresWorkWithoutArrivals(t *testing.T) {
	snaps := make(chan Snapshot, 8)
	p, err := New(context.Background(), Config{
		Cluster:       place.Cluster{Nodes: 1},
		SnapshotEvery: 1,
		OnSnapshot:    func(s Snapshot) { snaps <- s },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(place.JobSpec{Model: "lstm", ArrivalNs: 0}); err != nil {
		t.Fatal(err)
	}
	if err := p.Tick(1e15); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-snaps:
		if s.Completed != 1 {
			t.Errorf("tick snapshot shows %d completions, want 1", s.Completed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no completion surfaced after tick — clock did not advance")
	}
	p.Close()
	if _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestEndFlagPropagation: Close's END flag, queued behind the submission,
// drains the engine and stops the pipeline's goroutine without
// cancellation.
func TestEndFlagPropagation(t *testing.T) {
	p, err := New(context.Background(), Config{Cluster: place.Cluster{Nodes: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(place.JobSpec{Model: "lstm"}); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.done:
	default:
		t.Error("pipeline goroutine still running after Wait")
	}
	if p.ctx.Err() == nil {
		t.Error("Wait should release the pipeline context")
	}
	// Close is idempotent; Submit after Close errors instead of panicking.
	p.Close()
	if err := p.Submit(place.JobSpec{Model: "lstm"}); err == nil {
		t.Error("Submit after Close succeeded")
	}
}

// TestCancelMidStreamUnwindsAllStages: cancelling the context mid-stream
// stops the pipeline's goroutine and a feeder blocked on a full buffer,
// with no goroutine left behind. The pipeline is wedged deterministically:
// a snapshot callback blocks until cancellation, so the single-slot input
// fills and blocks the feeder before the context is cut.
func TestCancelMidStreamUnwindsAllStages(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	blocked := make(chan struct{}, 1)
	p, err := New(ctx, Config{
		Cluster: place.Cluster{Nodes: 1}, Buffer: 1,
		SnapshotEvery: 1,
		OnSnapshot: func(Snapshot) {
			select {
			case blocked <- struct{}{}:
			default:
			}
			<-ctx.Done()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Feed from a goroutine so cancellation catches it mid-Submit.
	fed := make(chan error, 1)
	go func() {
		w := place.MustSynthetic(200, 1, []string{"lstm"}, 2e6)
		sort.SliceStable(w, func(a, b int) bool { return w[a].ArrivalNs < w[b].ArrivalNs })
		for _, j := range w {
			if err := p.Submit(j); err != nil {
				fed <- err
				return
			}
		}
		fed <- nil
	}()
	select {
	case <-blocked: // the first completion's snapshot holds the loop
	case <-time.After(10 * time.Second):
		t.Fatal("pipeline never reached the blocking snapshot")
	}
	time.Sleep(10 * time.Millisecond) // let backpressure reach the feeder
	cancel()
	if _, err := p.Wait(); err == nil {
		t.Error("Wait after cancel returned no error")
	}
	if err := <-fed; err == nil {
		t.Error("feeder drained the whole flood despite cancellation")
	}
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		t.Fatal("pipeline goroutine never exited after cancel")
	}
	settleGoroutines(t, before, "after cancel")
}

// sliceSource replays a fixed spec slice through the Source interface.
type sliceSource struct {
	specs []place.JobSpec
	i     int
}

func (s *sliceSource) Next() (place.JobSpec, error) {
	if s.i >= len(s.specs) {
		return place.JobSpec{}, io.EOF
	}
	j := s.specs[s.i]
	s.i++
	return j, nil
}

// failingSource yields its specs, then fails with err.
type failingSource struct {
	sliceSource
	err error
}

func (s *failingSource) Next() (place.JobSpec, error) {
	if s.i >= len(s.specs) {
		return place.JobSpec{}, s.err
	}
	return s.sliceSource.Next()
}

// TestFeedLeavesStreamOpen: Feed returns at the end of its source without
// sending the END flag, so another feeder may keep submitting and the
// sealed result holds both feeders' jobs; after Close, Feed fails instead
// of submitting. A source error aborts Replay with that error.
func TestFeedLeavesStreamOpen(t *testing.T) {
	cfg := Config{Cluster: place.Cluster{Nodes: 1}}
	one := []place.JobSpec{{Model: "lstm", ArrivalNs: 0}}
	p, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Feed(&sliceSource{specs: one}, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(place.JobSpec{Model: "dcgan", ArrivalNs: 1e6}); err != nil {
		t.Fatalf("submit after Feed: %v", err)
	}
	p.Close()
	if err := p.Feed(&sliceSource{specs: one}, 0); err == nil {
		t.Error("Feed after Close reported no error")
	}
	res, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 2 || res.Jobs[1].Model != nn.DCGAN {
		t.Errorf("sealed %d jobs %+v, want the fed lstm and the submitted dcgan", len(res.Jobs), res.Jobs)
	}

	bad := errors.New("bad row")
	if _, err := Replay(context.Background(), cfg, &failingSource{sliceSource{specs: one}, bad}, 0); !errors.Is(err, bad) {
		t.Errorf("Replay over a failing source returned %v, want %v", err, bad)
	}
}

// TestReplayPacing: a finite speed spreads submissions over wall time
// without changing the virtual-time result.
func TestReplayPacing(t *testing.T) {
	specs := place.Workload{
		{Model: "lstm", ArrivalNs: 0},
		{Model: "lstm", ArrivalNs: 50e6}, // 50 virtual ms
	}
	canon, err := specs.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	// speed 5: the 50 ms virtual gap becomes ≥10 ms of wall time.
	res, err := Replay(context.Background(), Config{Cluster: place.Cluster{Nodes: 1}},
		&sliceSource{specs: canon}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Errorf("paced replay finished in %v, expected >= 10ms of pacing", elapsed)
	}
	if len(res.Jobs) != 2 || res.Jobs[1].ArrivalNs != 50e6 {
		t.Errorf("pacing altered virtual time: %+v", res.Jobs)
	}
}

// TestReplaySegmentEdges replays workloads whose last job sits just
// before, on and just after a boundary of the engine's job table (64 and
// 192 records): multi-step, preemptive, mixed training and inference. The
// replay renders byte-identically to place.PlaceJobs, and every job the
// pipeline's engine holds equals the sealed Result's copy of it.
func TestReplaySegmentEdges(t *testing.T) {
	c := place.Cluster{Nodes: 2, GPUs: 2}
	o := place.Options{Policy: "model-aware", Preempt: "all"}
	for _, n := range []int{63, 64, 65, 191, 192, 193} {
		n := n
		t.Run(fmt.Sprintf("jobs=%d", n), func(t *testing.T) {
			t.Parallel()
			train, err := place.SyntheticSteps(n-n/3, 5, nn.Names(), 50e6, 8)
			if err != nil {
				t.Fatal(err)
			}
			w := train.Merge(place.MustSyntheticInference(n/3, 5, nn.Names(), 100e6, 50e6))
			want, err := place.PlaceJobs(w, c, o)
			if err != nil {
				t.Fatal(err)
			}
			got, err := replayWorkload(context.Background(), w, c, o)
			if err != nil {
				t.Fatal(err)
			}
			if got.Render() != want.Render() {
				t.Fatalf("replay render differs from PlaceJobs:\n%s\nwant:\n%s", got.Render(), want.Render())
			}

			specs, err := w.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			p, err := New(context.Background(), Config{Cluster: c, Options: o})
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range specs {
				if err := p.Submit(j); err != nil {
					t.Fatal(err)
				}
			}
			p.Close()
			res, err := p.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Jobs) != n {
				t.Fatalf("%d jobs, want %d", len(res.Jobs), n)
			}
			for ji := range res.Jobs {
				if job := p.eng.Job(ji); job != res.Jobs[ji] || job != got.Jobs[ji] {
					t.Fatalf("job %d: Engine.Job %+v, Result %+v, Replay %+v", ji, job, res.Jobs[ji], got.Jobs[ji])
				}
			}
			before := p.eng.Job(n - 1)
			res.Jobs[n-1].Preemptions += 7
			res.Jobs[n-1].Path = "n99/gpu"
			if after := p.eng.Job(n - 1); after != before {
				t.Fatalf("mutating Result.Jobs changed Engine.Job: %+v, want %+v", after, before)
			}
		})
	}
}

// settleGoroutines waits up to five seconds for the goroutine count to fall
// back to want, and fails the test if it does not.
func settleGoroutines(t *testing.T, want int, when string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > want {
		t.Errorf("goroutines leaked %s: %d before, %d after", when, want, got)
	}
}

// TestConcurrentSubmitSoak: four submitters stream 250 uniquely named
// jobs each while one goroutine ticks and another reads Snapshot. Every
// job completes exactly once, the drained Snapshot agrees with the sealed
// Result, and the goroutine count returns to where it started, after
// Wait and again after a cancel mid-stream. Run it under -race. The
// submitters race each other, so their arrivals clamp forward to whichever
// ran ahead; one node per job keeps such a pile-up from turning into one
// huge co-run wave.
func TestConcurrentSubmitSoak(t *testing.T) {
	const submitters, perSubmitter = 4, 250
	before := runtime.NumGoroutine()
	// stream runs the soak; when cancel is set, the first submitter calls
	// it halfway through its jobs.
	stream := func(ctx context.Context, cancel context.CancelFunc) (*Pipeline, *place.Result, error) {
		p, err := New(ctx, Config{Cluster: place.Cluster{Nodes: submitters * perSubmitter}, Buffer: 8})
		if err != nil {
			t.Fatal(err)
		}
		var feeders sync.WaitGroup
		for s := 0; s < submitters; s++ {
			feeders.Add(1)
			go func(s int) {
				defer feeders.Done()
				models := []string{"lstm", "dcgan"}
				for k := 0; k < perSubmitter; k++ {
					j := place.JobSpec{
						Name: fmt.Sprintf("s%d-%d", s, k), Model: models[(s+k)%2],
						ArrivalNs: float64(k) * 10e6,
					}
					if p.Submit(j) != nil {
						return
					}
					if s == 0 && k == perSubmitter/2 && cancel != nil {
						cancel()
					}
				}
			}(s)
		}
		stop := make(chan struct{})
		var aux sync.WaitGroup
		aux.Add(2)
		go func() { // ticker
			defer aux.Done()
			for i := 0; i < perSubmitter; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if p.Tick(float64(i)*10e6) != nil {
					return
				}
				runtime.Gosched()
			}
		}()
		go func() { // reader
			defer aux.Done()
			prev := Snapshot{}
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := p.Snapshot()
				if s.Completed < prev.Completed || s.Submitted < prev.Submitted ||
					s.Completed+s.InFlight+s.Rejected != s.Submitted {
					t.Errorf("inconsistent live snapshot %+v after %+v", s, prev)
					return
				}
				prev = s
				runtime.Gosched()
			}
		}()
		feeders.Wait()
		p.Close()
		res, err := p.Wait()
		close(stop)
		aux.Wait()
		return p, res, err
	}

	p, res, err := stream(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int, submitters*perSubmitter)
	for _, j := range res.Jobs {
		seen[j.Name]++
		if j.StepsDone != j.Steps || !(j.FinishNs > j.ArrivalNs) {
			t.Errorf("job %s did not complete: %+v", j.Name, j)
		}
	}
	if len(res.Jobs) != submitters*perSubmitter || len(seen) != len(res.Jobs) {
		t.Errorf("%d jobs sealed under %d names, want %d of each", len(res.Jobs), len(seen), submitters*perSubmitter)
	}
	for name, n := range seen {
		if n != 1 {
			t.Errorf("job %s sealed %d times", name, n)
		}
	}
	s := p.Snapshot()
	if s.Submitted != len(res.Jobs) || s.Completed != len(res.Jobs) || s.Rejected != 0 || s.InFlight != 0 ||
		s.Preemptions != res.Preemptions || s.QueueP99Ns != res.QueuePercentileNs(0.99) ||
		s.QueueP50Ns != res.QueuePercentileNs(0.50) {
		t.Errorf("drained snapshot %+v disagrees with the sealed result (%d jobs, queue p50 %v p99 %v)",
			s, len(res.Jobs), res.QueuePercentileNs(0.50), res.QueuePercentileNs(0.99))
	}
	settleGoroutines(t, before, "after Wait")

	ctx, cancel := context.WithCancel(context.Background())
	stream(ctx, cancel)
	settleGoroutines(t, before, "after a cancel mid-stream")
}
