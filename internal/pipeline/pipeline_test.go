package pipeline

import (
	"context"
	"errors"
	"io"
	"math"
	"runtime"
	"sort"
	"testing"
	"time"

	"opsched/internal/place"
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

// TestBatchEquivalence is the refactoring's contract: replaying a closed
// workload through the three-stage pipeline renders byte-identically to the
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

// TestSnapshotMatchesSealedResult: at drain, the live percentiles equal
// the sealed Result's nearest-rank percentiles — one metric definition,
// batch or streaming.
func TestSnapshotMatchesSealedResult(t *testing.T) {
	w := place.MustSynthetic(30, 9, []string{"lstm", "inception-v3"}, 2e6)
	sort.SliceStable(w, func(a, b int) bool { return w[a].ArrivalNs < w[b].ArrivalNs })
	p, err := New(context.Background(), Config{Cluster: place.Cluster{Nodes: 2, GPUs: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range w {
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
	if s.Completed != len(w) || s.InFlight != 0 {
		t.Fatalf("drained snapshot: completed=%d inflight=%d, want %d/0", s.Completed, s.InFlight, len(w))
	}
	for _, q := range []struct {
		p    float64
		live float64
	}{{0.50, s.QueueP50Ns}, {0.95, s.QueueP95Ns}, {0.99, s.QueueP99Ns}} {
		if want := res.QueuePercentileNs(q.p); q.live != want {
			t.Errorf("live queue p%v = %v, sealed result says %v", q.p*100, q.live, want)
		}
	}
	// Means are summed in completion order live and admission order sealed;
	// identical up to float summation order.
	closeEnough := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
	}
	if !closeEnough(s.MeanJCTNs, res.MeanJCTNs) || !closeEnough(s.MeanQueueNs, res.MeanQueueNs) {
		t.Errorf("live means (jct %v, queue %v) != sealed (%v, %v)",
			s.MeanJCTNs, s.MeanQueueNs, res.MeanJCTNs, res.MeanQueueNs)
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

// TestEndFlagPropagation: Close's END sentinel must travel
// admission→execution→metrics, shutting each stage down in
// order — every stageDone channel closes without cancellation.
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
	names := []string{"admission", "execution", "metrics"}
	for i, done := range p.stageDone {
		select {
		case <-done:
		default:
			t.Errorf("stage %s still running after Wait", names[i])
		}
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
// stops every stage — including a feeder blocked on a full buffer — with
// no goroutine left behind. The pipeline is wedged deterministically: a
// snapshot callback blocks until cancellation, so backpressure fills every
// single-slot buffer back to the feeder before the context is cut.
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
	case <-blocked: // first completion reached metrics; the chain is wedging
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
	for i, done := range p.stageDone {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("stage %d never exited after cancel", i)
		}
	}
	// Leak barrier: the goroutine count settles back to where it started.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("goroutines leaked: %d before, %d after cancel+drain", before, got)
	}
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
