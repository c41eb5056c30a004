package place

import "strconv"

// Wave memoization.
//
// A node's RunWave is a pure, deterministic function of what its simulator
// reads from the ordered resident job list: per job, the model key and — on
// a CPU node — the arbiter priority, the normalized weight and whether the
// slot is a latency-class (inference) slot; names never influence the
// numbers. Service-scale streams recur the same gang compositions over and
// over (every wave of k queued LSTMs prices identically), so the runtimes
// memoize RunWave results fleet-wide: every node sharing a hardware
// descriptor shares one runtime and therefore one cache, and a recurring
// composition costs one simulation, not one per node per round.
//
// The cache key is that simulator input and nothing else: the hardware
// kind, then per job in input order (Model, Priority, normalized Weight,
// Class). Input order matters because the multijob arbiters break ties on
// job index, so two orderings of the same jobs may price differently. A
// hit therefore returns the byte-identical result a fresh simulation of
// that exact input would produce, which keeps every determinism and
// batch-vs-pipeline equivalence gate intact with memoization enabled. The
// GPU simulator reads only Model, and so does the CPU simulator for a lone
// job, whose wave is its cached solo step; the key keeps the shared tuple
// on both kinds and at every gang size. The lone-job answer is cheap but
// still goes through the memo, so hit and miss counts mean the same at
// every gang size.

// appendWaveKey appends the memo key of one RunWave input to buf. Weight is
// normalized the way the simulators read it (<= 0 means 1), and Class
// enters only as the inference flag cpuRuntime.simulate tests. Model keys
// (canonical names and InferKeys) never contain ';' or '|', so two inputs
// share a key only when every field the simulators read matches.
func appendWaveKey(buf []byte, kind string, jobs []WaveJob) []byte {
	buf = append(buf, kind...)
	for _, j := range jobs {
		w := j.Weight
		if w <= 0 {
			w = 1
		}
		buf = append(buf, ';')
		buf = append(buf, j.Model...)
		buf = append(buf, "|p"...)
		buf = strconv.AppendInt(buf, int64(j.Priority), 10)
		buf = append(buf, "|w"...)
		buf = strconv.AppendFloat(buf, w, 'g', -1, 64)
		if j.Class == ClassInference {
			buf = append(buf, "|i"...)
		}
	}
	return buf
}

// waveMemo is the fleet-wide RunWave cache one runtime carries. The engine
// drives it from its single event-loop goroutine. Cached *WaveResult
// values are shared across waves and must be treated as immutable by
// every caller.
type waveMemo struct {
	entries map[string]*WaveResult
	key     []byte // scratch the lookup key is built into
	hits    int
	misses  int
}

// do returns the cached result of this wave input on the given hardware
// kind, simulating it with sim on first use (a miss). The lookup does not
// allocate; the key is copied to a string only when a result is stored. A
// failed simulation is not cached: the error propagates and the next call
// retries.
func (m *waveMemo) do(kind string, jobs []WaveJob, sim func([]WaveJob) (*WaveResult, error)) (*WaveResult, error) {
	m.key = appendWaveKey(m.key[:0], kind, jobs)
	if res, ok := m.entries[string(m.key)]; ok {
		m.hits++
		return res, nil
	}
	m.misses++
	res, err := sim(jobs)
	if err != nil {
		return nil, err
	}
	if m.entries == nil {
		m.entries = make(map[string]*WaveResult)
	}
	m.entries[string(m.key)] = res
	return res, nil
}

// stats reports the cache's hit/miss counters: hits are RunWave calls
// served from a cached simulation, misses are simulations actually run.
// A nil memo (memoization disabled) reports zeros.
func (m *waveMemo) stats() (hits, misses int) {
	if m == nil {
		return 0, 0
	}
	return m.hits, m.misses
}

// waveMemoStats is the optional introspection interface memoizing runtimes
// implement; Engine.WaveMemoStats sums it across the fleet.
type waveMemoStats interface {
	WaveMemoStats() (hits, misses int)
}
