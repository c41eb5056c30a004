package pipeline

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"opsched/internal/place"
	"opsched/internal/stats"
)

// Snapshot is one live reading of a pipeline's metrics: what the scheduler
// can report while jobs are still in flight. Completion counts and means
// come from the engine's place.Tally, the fold the sealed Result reads, so
// a drained pipeline's snapshot equals its Result exactly. Percentiles are
// nearest-rank (stats.NearestRank) over everything completed so far, the
// rule Result.QueuePercentileNs applies to a sealed run.
type Snapshot struct {
	// VirtualNowNs is the latest virtual time the pipeline has reported —
	// the newest placement, completion or tick.
	VirtualNowNs float64
	// Submitted counts every job the pipeline has taken off its input;
	// Rejected the ones JobSpec.Check refused; ClampedArrivals the
	// out-of-order arrivals pulled forward to the admission clock.
	Submitted       int
	Rejected        int
	ClampedArrivals int
	// Placed / InFlight / Completed track the admitted population.
	Placed    int
	InFlight  int
	Completed int
	// Queue and JCT aggregates over completed jobs, in virtual nanoseconds.
	MeanQueueNs float64
	MeanJCTNs   float64
	QueueP50Ns  float64
	QueueP95Ns  float64
	QueueP99Ns  float64
	JCTP50Ns    float64
	JCTP95Ns    float64
	JCTP99Ns    float64
	// Preemptions and Migrations sum the completed jobs' checkpoint counts.
	Preemptions int
	Migrations  int
	// Per-class serving metrics, all zero while no inference request has
	// completed — a training-only pipeline's snapshot (and its String
	// rendering) is unchanged by the inference job class existing.
	InferCompleted int
	InferSLOMet    int
	InferSLOTotal  int
	InferP50Ns     float64
	InferP99Ns     float64
}

// String renders the snapshot as one compact log line, virtual times in
// milliseconds — the format opsched-serve and examples/serve print.
func (s Snapshot) String() string {
	line := fmt.Sprintf(
		"t=%.3fms submitted=%d rejected=%d placed=%d inflight=%d done=%d queue[p50=%.3f p95=%.3f p99=%.3f]ms jct[p50=%.3f p95=%.3f p99=%.3f]ms",
		s.VirtualNowNs/1e6, s.Submitted, s.Rejected, s.Placed, s.InFlight, s.Completed,
		s.QueueP50Ns/1e6, s.QueueP95Ns/1e6, s.QueueP99Ns/1e6,
		s.JCTP50Ns/1e6, s.JCTP95Ns/1e6, s.JCTP99Ns/1e6)
	if s.InferCompleted > 0 {
		line += fmt.Sprintf(" inf[done=%d slo=%d/%d p50=%.3f p99=%.3f]ms",
			s.InferCompleted, s.InferSLOMet, s.InferSLOTotal,
			s.InferP50Ns/1e6, s.InferP99Ns/1e6)
	}
	return line
}

// Latency-distribution memory bound: below exactSampleCap samples a
// distribution keeps every sample and its percentiles are exact
// nearest-rank — byte-identical to the sealed report, which go test checks
// at drain. At the cap the samples fold into a fixed log-spaced bucket
// histogram (histBucketsPerDecade buckets per decade spanning
// [1 ns, 10^histDecades ns], plus an underflow bucket for zero/negative
// values and an overflow bucket), after which a distribution takes O(1)
// memory per completion. The fold bounds only the live samples: the
// engine's job table still keeps one record (376 B) per admitted job for
// the life of the pipeline, so a long-lived opsched-serve grows with every
// job it admits. A histogram quantile reports the geometric midpoint of
// its bucket, so its relative error is bounded by half a bucket width:
// 10^(1/(2·histBucketsPerDecade))-1 ≈ 2.4%.
const (
	exactSampleCap       = 8192
	histBucketsPerDecade = 48
	histDecades          = 12 // 1 ns .. ~17 virtual minutes
	histBucketCount      = histBucketsPerDecade*histDecades + 2
)

// latencyDist is one bounded latency distribution (queue or JCT).
type latencyDist struct {
	n     int
	exact []float64 // nil once folded into hist
	hist  []uint64  // nil in the exact regime
}

func (d *latencyDist) add(v float64) {
	d.n++
	if d.hist == nil {
		d.exact = append(d.exact, v)
		if len(d.exact) <= exactSampleCap {
			return
		}
		d.hist = make([]uint64, histBucketCount)
		for _, x := range d.exact {
			d.hist[histBucket(x)]++
		}
		d.exact = nil
		return
	}
	d.hist[histBucket(v)]++
}

// histBucket maps a sample to its bucket: 0 holds everything below 1 ns
// (zero queue delays included), the last bucket everything past the range.
func histBucket(v float64) int {
	if v < 1 {
		return 0
	}
	i := 1 + int(math.Log10(v)*histBucketsPerDecade)
	if i >= histBucketCount-1 {
		return histBucketCount - 1
	}
	return i
}

// histRepr is the value a bucket reports: 0 for the underflow bucket, the
// geometric midpoint of the bucket's bounds otherwise.
func histRepr(i int) float64 {
	if i <= 0 {
		return 0
	}
	if i >= histBucketCount-1 {
		return math.Pow(10, histDecades)
	}
	return math.Pow(10, (float64(i-1)+0.5)/histBucketsPerDecade)
}

// view returns a reading of d that its writer cannot disturb: the exact
// samples' slice header, since add only appends past it and a fold or a
// reallocation leaves the old array as it was, and a copy of the
// histogram, which add increments in place. Take it under the lock that
// guards d and rank it after releasing the lock.
func (d *latencyDist) view() latencyDist {
	return latencyDist{n: d.n, exact: d.exact[:len(d.exact):len(d.exact)], hist: slices.Clone(d.hist)}
}

// quantile3 returns the three requested nearest-rank quantiles: exact in
// the sample regime, bucket-resolution (documented bound above) after the
// histogram fold. It sorts a copy of the exact samples, so it may rank a
// view while the writer appends.
func (d *latencyDist) quantile3(a, b, c float64) (float64, float64, float64) {
	if d.hist == nil {
		xs := slices.Clone(d.exact)
		slices.Sort(xs)
		return stats.NearestRank(xs, a), stats.NearestRank(xs, b), stats.NearestRank(xs, c)
	}
	return d.histRank(a), d.histRank(b), d.histRank(c)
}

func (d *latencyDist) histRank(p float64) float64 {
	if d.n == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(d.n))) - 1
	if k < 0 {
		k = 0
	}
	cum := 0
	for i, c := range d.hist {
		cum += int(c)
		if k < cum {
			return histRepr(i)
		}
	}
	return histRepr(histBucketCount - 1)
}

// liveMetrics is the mutex-guarded state behind Snapshot: the pipeline's
// goroutine records every rejection, placement and tick, and after each
// engine call the latency samples of the jobs it completed together with
// the engine's tally; any goroutine may read a Snapshot.
type liveMetrics struct {
	mu       sync.Mutex
	rejected int // every submission is rejected or placed
	clamped  int
	placed   int
	nowNs    float64 // latest placement or tick

	// tally is the engine's tally as of the last completion sampled.
	tally    place.Tally
	queue    latencyDist
	jct      latencyDist
	inferJCT latencyDist // never allocated in a training-only run
}

// noteRejected counts one submission JobSpec.Check refused.
func (m *liveMetrics) noteRejected() {
	m.mu.Lock()
	m.rejected++
	m.mu.Unlock()
}

// notePlaced counts one submission placed at atNs, clamped or not.
func (m *liveMetrics) notePlaced(atNs float64, clamped bool) {
	m.mu.Lock()
	m.placed++
	if clamped {
		m.clamped++
	}
	if atNs > m.nowNs {
		m.nowNs = atNs
	}
	m.mu.Unlock()
}

func (m *liveMetrics) noteNow(atNs float64) {
	m.mu.Lock()
	if atNs > m.nowNs {
		m.nowNs = atNs
	}
	m.mu.Unlock()
}

// noteCompleted samples the latencies of jobs, completed in that order,
// and adopts t, the engine's tally as of the last of them.
func (m *liveMetrics) noteCompleted(jobs []place.PlacedJob, t *place.Tally) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k := range jobs {
		j := &jobs[k]
		jct := j.JCTNs()
		m.queue.add(j.QueueNs)
		m.jct.add(jct)
		if j.Class == place.ClassInference {
			m.inferJCT.add(jct)
		}
	}
	m.tally = *t
}

// Snapshot computes the current reading. It holds the lock only to copy
// the counters and tally and to take a view of each latency distribution;
// it copies, sorts and ranks the samples after releasing it, so a client
// polling Snapshot never holds up the placements and completions that take
// the lock. In the exact regime ranking is O(n log n) in completions; past
// the histogram fold it is O(1); the hot per-completion path stays O(1)
// amortized either way.
func (m *liveMetrics) Snapshot() Snapshot {
	m.mu.Lock()
	t := m.tally
	s := Snapshot{
		VirtualNowNs: max(m.nowNs, t.MakespanNs),
		Submitted:    m.rejected + m.placed, Rejected: m.rejected, ClampedArrivals: m.clamped,
		Placed: m.placed, InFlight: m.placed - t.Completed(), Completed: t.Completed(),
		MeanQueueNs: t.MeanQueueNs(), MeanJCTNs: t.MeanJCTNs(),
		Preemptions: t.Preemptions, Migrations: t.Migrations,
		InferCompleted: t.InferenceJobs, InferSLOMet: t.SLO.Met, InferSLOTotal: t.SLO.Total,
	}
	queue, jct, infer := m.queue.view(), m.jct.view(), m.inferJCT.view()
	m.mu.Unlock()

	s.QueueP50Ns, s.QueueP95Ns, s.QueueP99Ns = queue.quantile3(0.50, 0.95, 0.99)
	s.JCTP50Ns, s.JCTP95Ns, s.JCTP99Ns = jct.quantile3(0.50, 0.95, 0.99)
	if s.InferCompleted > 0 {
		s.InferP50Ns, _, s.InferP99Ns = infer.quantile3(0.50, 0.50, 0.99)
	}
	return s
}
