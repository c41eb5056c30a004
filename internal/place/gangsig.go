package place

import (
	"sort"
	"strconv"
	"strings"
)

// Gang-signature wave memoization.
//
// A node's RunWave is a pure, deterministic function of the ordered resident
// job list — per-job (model, priority, weight) on the node's hardware; names
// never influence the numbers. Service-scale streams recur the same gang
// compositions over and over (every wave of k queued LSTMs prices
// identically), so the runtimes memoize RunWave results fleet-wide: every
// node sharing a hardware descriptor shares one runtime and therefore one
// cache, and an S-step wave that re-runs a recurring composition costs one
// simulation per unique composition, not one per node per round.
//
// The cache key is the canonical *gang signature*: the sorted multiset of
// (graph/model, steps-remaining bucket, priority, weight) tuples, prefixed
// by the hardware kind so a CPU wave and a GPU wave of the same jobs never
// share an entry. The signature is order-invariant — the property the
// canonicalization tests pin down — but the multijob engine's arbiters
// break ties on job *index*, so two orderings of the same multiset are not
// guaranteed to simulate identically. The cache therefore stores, under
// each canonical signature, one result per *ordered fingerprint* actually
// simulated: a hit returns the byte-identical result a fresh simulation of
// that exact ordering would produce, unconditionally — which is what keeps
// every determinism and batch-vs-pipeline equivalence gate intact with
// memoization enabled. In practice a canonical composition recurs in one or
// two orderings, so the variant lists stay tiny.

// stepsBucketCap is where steps-remaining buckets stop being exact: buckets
// are exact up to this value, then round up to the next power of two.
const stepsBucketCap = 4

// StepsBucket maps a job's steps-remaining count onto its signature bucket:
// exact through stepsBucketCap, then the next power of two (5-8 → 8, 9-16 →
// 16, ...). RunWave prices one lockstep round, which today is independent
// of how many rounds remain — but the bucket keeps the signature honest for
// step-dependent runtimes (e.g. a warmup-aware cost model) without
// fragmenting the cache across every distinct remaining-step count.
func StepsBucket(stepsLeft int) int {
	if stepsLeft <= 1 {
		return 1
	}
	if stepsLeft <= stepsBucketCap {
		return stepsLeft
	}
	b := stepsBucketCap * 2
	for b < stepsLeft {
		b <<= 1
	}
	return b
}

// gangTuple renders one job's signature tuple. Weight is normalized the way
// the wave simulators read it (<= 0 means 1), so jobs that price
// identically share a tuple.
func gangTuple(b *strings.Builder, j WaveJob) {
	w := j.Weight
	if w <= 0 {
		w = 1
	}
	b.WriteString(j.Model)
	b.WriteString("|s")
	b.WriteString(strconv.Itoa(StepsBucket(j.StepsLeft)))
	b.WriteString("|p")
	b.WriteString(strconv.Itoa(j.Priority))
	b.WriteString("|w")
	b.WriteString(strconv.FormatFloat(w, 'g', -1, 64))
}

// GangSignature is the canonical, order-invariant signature of a gang wave
// on the given hardware kind: sorted per-job tuples joined under a kind
// prefix. Two waves share a signature exactly when they are the same
// multiset of (model, steps-remaining bucket, priority, weight) on the same
// hardware kind.
func GangSignature(kind string, jobs []WaveJob) string {
	tuples := make([]string, len(jobs))
	var b strings.Builder
	for i, j := range jobs {
		b.Reset()
		gangTuple(&b, j)
		tuples[i] = b.String()
	}
	sort.Strings(tuples)
	b.Reset()
	b.WriteString(kind)
	b.WriteString("::")
	for i, t := range tuples {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(t)
	}
	return b.String()
}

// gangKeys returns the canonical signature and the ordered fingerprint of
// one RunWave input. The fingerprint is the same tuples in input order — the
// exact quantity RunWave's output is a pure function of.
func gangKeys(kind string, jobs []WaveJob) (sig, fp string) {
	tuples := make([]string, len(jobs))
	var b strings.Builder
	for i, j := range jobs {
		b.Reset()
		gangTuple(&b, j)
		tuples[i] = b.String()
	}
	b.Reset()
	b.WriteString(kind)
	b.WriteString("::")
	for i, t := range tuples {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(t)
	}
	fp = b.String()
	sort.Strings(tuples)
	b.Reset()
	b.WriteString(kind)
	b.WriteString("::")
	for i, t := range tuples {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(t)
	}
	return b.String(), fp
}

// memoVariant is one simulated ordering of a canonical gang composition.
type memoVariant struct {
	fp  string
	res *WaveResult
}

// waveMemo is the fleet-wide RunWave cache one runtime carries, keyed by
// canonical signature with one variant per ordered fingerprint. The engine
// drives it from its single event-loop goroutine. Cached *WaveResult
// values are shared across waves and must be treated as immutable by
// every caller.
type waveMemo struct {
	entries map[string][]*memoVariant
	hits    int
	misses  int
}

// do returns the cached result of this exact ordered fingerprint under the
// canonical signature, simulating it with sim on first use (a miss). A
// failed simulation is not cached: the error propagates and the next call
// retries.
func (m *waveMemo) do(sig, fp string, sim func() (*WaveResult, error)) (*WaveResult, error) {
	for _, v := range m.entries[sig] {
		if v.fp == fp {
			m.hits++
			return v.res, nil
		}
	}
	m.misses++
	res, err := sim()
	if err != nil {
		return nil, err
	}
	if m.entries == nil {
		m.entries = make(map[string][]*memoVariant)
	}
	m.entries[sig] = append(m.entries[sig], &memoVariant{fp: fp, res: res})
	return res, nil
}

// stats reports the cache's hit/miss counters: hits are RunWave calls
// served from a cached simulation, misses are simulations actually run.
func (m *waveMemo) stats() (hits, misses int) {
	return m.hits, m.misses
}

// waveMemoStats is the optional introspection interface memoizing runtimes
// implement; Engine.WaveMemoStats sums it across the fleet.
type waveMemoStats interface {
	WaveMemoStats() (hits, misses int)
}
