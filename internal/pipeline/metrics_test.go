package pipeline

import (
	"math"
	"sort"
	"strings"
	"testing"

	"opsched/internal/place"
	"opsched/internal/stats"
)

func TestSnapshotString(t *testing.T) {
	s := Snapshot{
		VirtualNowNs: 1.5e6, Submitted: 3, Placed: 2, InFlight: 1, Completed: 1,
		QueueP50Ns: 2e6, QueueP95Ns: 3e6, QueueP99Ns: 3e6,
		JCTP50Ns: 30e6, JCTP95Ns: 40e6, JCTP99Ns: 40e6,
	}
	line := s.String()
	for _, want := range []string{
		"t=1.500ms", "submitted=3", "placed=2", "inflight=1", "done=1",
		"queue[p50=2.000 p95=3.000 p99=3.000]ms",
		"jct[p50=30.000 p95=40.000 p99=40.000]ms",
	} {
		if !strings.Contains(line, want) {
			t.Fatalf("snapshot line missing %q:\n%s", want, line)
		}
	}
	if strings.Contains(line, "\n") {
		t.Fatal("snapshot line must be one line")
	}
}

// complete records one completed job in m the way retire records an
// engine call that completed only j.
func complete(m *liveMetrics, j place.PlacedJob) {
	t := m.tally
	t.Add(&j)
	m.noteCompleted([]place.PlacedJob{j}, &t)
}

// TestLiveMetricsMemoryPinned: past exactSampleCap completions the
// accumulator folds into the fixed-bucket histogram and stops retaining
// samples — O(1) memory per completion, the long-lived-service guarantee.
func TestLiveMetricsMemoryPinned(t *testing.T) {
	m := &liveMetrics{}
	n := 4 * exactSampleCap
	for i := 0; i < n; i++ {
		complete(m, place.PlacedJob{
			ArrivalNs: 0, StartNs: float64(i), FinishNs: float64(i) + 1e6,
			QueueNs: float64(i % 1000 * 1e3),
		})
	}
	if m.queue.exact != nil || m.jct.exact != nil {
		t.Fatalf("exact samples retained past the cap: queue=%d jct=%d",
			len(m.queue.exact), len(m.jct.exact))
	}
	if len(m.queue.hist) != histBucketCount || len(m.jct.hist) != histBucketCount {
		t.Fatalf("histogram not at its fixed size: %d/%d", len(m.queue.hist), len(m.jct.hist))
	}
	if m.queue.n != n || m.jct.n != n {
		t.Fatalf("sample count %d/%d, want %d", m.queue.n, m.jct.n, n)
	}
	s := m.Snapshot()
	if s.Completed != n {
		t.Fatalf("snapshot completed %d, want %d", s.Completed, n)
	}
	// The histogram quantile carries the documented relative error bound
	// (half a log bucket ≈ 2.4%) against the exact nearest-rank value.
	exactP50 := float64(499 * 1e3) // uniform over {0, 1e3, ..., 999e3}
	bound := math.Pow(10, 1/(2*float64(histBucketsPerDecade))) - 1
	if rel := math.Abs(s.QueueP50Ns-exactP50) / exactP50; rel > bound+1e-9 {
		t.Errorf("histogram p50 %.0f vs exact %.0f: relative error %.4f past the %.4f bound",
			s.QueueP50Ns, exactP50, rel, bound)
	}
}

// TestLiveMetricsExactRegime: below the cap, snapshot percentiles are the
// exact nearest-rank values over the retained samples — what keeps a
// drained pipeline's live snapshot equal to the sealed report and the
// byte-identity gates green.
func TestLiveMetricsExactRegime(t *testing.T) {
	m := &liveMetrics{}
	queues := []float64{9e6, 1e6, 7e6, 3e6, 5e6, 0, 2e6, 8e6, 6e6, 4e6}
	for i, q := range queues {
		complete(m, place.PlacedJob{
			ArrivalNs: 0, StartNs: q, FinishNs: q + float64(i+1)*1e6, QueueNs: q,
		})
	}
	if m.queue.hist != nil {
		t.Fatal("histogram engaged below the cap")
	}
	s := m.Snapshot()
	sorted := append([]float64(nil), queues...)
	sort.Float64s(sorted)
	if want := stats.NearestRank(sorted, 0.50); s.QueueP50Ns != want {
		t.Errorf("exact-regime p50 %.0f, want %.0f", s.QueueP50Ns, want)
	}
	if want := stats.NearestRank(sorted, 0.99); s.QueueP99Ns != want {
		t.Errorf("exact-regime p99 %.0f, want %.0f", s.QueueP99Ns, want)
	}
	// Zero-latency samples (queue 0) survive both regimes as zero.
	if histRepr(histBucket(0)) != 0 {
		t.Error("zero sample must report as 0 from the underflow bucket")
	}
}

// TestLiveMetricsPerClass: inference completions fold into the per-class
// snapshot fields — counts, SLO accounting and p50/p99 — while training completions leave them untouched, and the
// String() serving clause appears only once inference jobs exist.
func TestLiveMetricsPerClass(t *testing.T) {
	m := &liveMetrics{}
	complete(m, place.PlacedJob{ArrivalNs: 0, StartNs: 1e6, FinishNs: 5e6, QueueNs: 1e6})
	s := m.Snapshot()
	if s.InferCompleted != 0 || s.InferSLOTotal != 0 {
		t.Fatalf("training completion leaked into serving fields: %+v", s)
	}
	if strings.Contains(s.String(), "inf[") {
		t.Errorf("training-only snapshot renders the serving clause: %s", s)
	}

	jcts := []float64{2e6, 4e6, 6e6, 8e6}
	for i, jct := range jcts {
		met := i%2 == 0
		j := place.PlacedJob{
			Class: place.ClassInference, SLONs: 5e6, SLOMet: met,
			ArrivalNs: 0, StartNs: 0, FinishNs: jct, QueueNs: 0,
		}
		complete(m, j)
	}
	// One request without an SLO counts toward completion but not the
	// attainment denominator.
	complete(m, place.PlacedJob{
		Class: place.ClassInference, ArrivalNs: 0, StartNs: 0, FinishNs: 1e6,
	})
	s = m.Snapshot()
	if s.InferCompleted != 5 || s.InferSLOTotal != 4 || s.InferSLOMet != 2 {
		t.Fatalf("serving counts %d done, %d/%d slo; want 5 done, 2/4", s.InferCompleted, s.InferSLOMet, s.InferSLOTotal)
	}
	if s.InferP50Ns > s.InferP99Ns {
		t.Errorf("inference p50 %v > p99 %v", s.InferP50Ns, s.InferP99Ns)
	}
	if !strings.Contains(s.String(), "inf[done=5 slo=2/4") {
		t.Errorf("serving clause missing or wrong: %s", s)
	}
}
