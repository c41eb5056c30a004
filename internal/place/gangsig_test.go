package place

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"opsched/internal/gpu"
	"opsched/internal/hw"
	"opsched/internal/multijob"
	"opsched/internal/nn"
)

func waveKey(kind string, jobs []WaveJob) string {
	return string(appendWaveKey(nil, kind, jobs))
}

// TestGangSignatureCanonicalization is the canonicalization table of the
// wave memo key: the key separates hardware kinds, normalizes weights and
// classes the way the wave simulators read them, ignores job names, and
// distinguishes every field the simulators do read. Order sensitivity is
// TestGangKeysFingerprintOrder's.
func TestGangSignatureCanonicalization(t *testing.T) {
	j := func(model string, prio int, weight float64) WaveJob {
		return WaveJob{Model: model, Priority: prio, Weight: weight}
	}
	inf := func(wj WaveJob) WaveJob { wj.Class = ClassInference; return wj }
	base := []WaveJob{j("lstm", 0, 1), j("dcgan", 5, 2), j("lstm", 0, 1)}
	cases := []struct {
		name  string
		kindA string
		jobsA []WaveJob
		kindB string
		jobsB []WaveJob
		equal bool
	}{
		{"identical", KindCPU, base, KindCPU, append([]WaveJob(nil), base...), true},
		{"names ignored", KindCPU, []WaveJob{{Name: "a", Model: "lstm"}},
			KindCPU, []WaveJob{{Name: "z", Model: "lstm"}}, true},
		{"cpu vs gpu", KindCPU, base, KindGPU, base, false},
		{"weight defaulted", KindCPU, []WaveJob{j("lstm", 0, 0)},
			KindCPU, []WaveJob{j("lstm", 0, 1)}, true},
		{"negative weight defaulted", KindCPU, []WaveJob{j("lstm", 0, -3)},
			KindCPU, []WaveJob{j("lstm", 0, 1)}, true},
		{"weight matters", KindCPU, []WaveJob{j("lstm", 0, 2)},
			KindCPU, []WaveJob{j("lstm", 0, 1)}, false},
		{"priority matters", KindCPU, []WaveJob{j("lstm", 5, 1)},
			KindCPU, []WaveJob{j("lstm", 0, 1)}, false},
		{"model matters", KindCPU, []WaveJob{j("lstm", 0, 1)},
			KindCPU, []WaveJob{j("dcgan", 0, 1)}, false},
		{"inference class matters", KindCPU, []WaveJob{inf(j("lstm", 0, 1))},
			KindCPU, []WaveJob{j("lstm", 0, 1)}, false},
		{"training class is the default", KindCPU, []WaveJob{{Model: "lstm", Class: ClassTraining}},
			KindCPU, []WaveJob{{Model: "lstm"}}, true},
		{"multiset not set", KindCPU, []WaveJob{j("lstm", 0, 1), j("lstm", 0, 1)},
			KindCPU, []WaveJob{j("lstm", 0, 1)}, false},
	}
	for _, tc := range cases {
		a := waveKey(tc.kindA, tc.jobsA)
		b := waveKey(tc.kindB, tc.jobsB)
		if (a == b) != tc.equal {
			t.Errorf("%s: keys %q vs %q, want equal=%v", tc.name, a, b, tc.equal)
		}
		if !strings.HasPrefix(a, tc.kindA+";") {
			t.Errorf("%s: key %q not prefixed by kind %q", tc.name, a, tc.kindA)
		}
	}
}

// TestGangKeysFingerprintOrder: the wave key keeps input order, because the
// multijob arbiters break ties on job index. The same input always builds
// the same key, while two orderings of one job multiset build distinct keys
// and so occupy distinct memo entries.
func TestGangKeysFingerprintOrder(t *testing.T) {
	a := WaveJob{Name: "x", Model: "dcgan", Priority: 1}
	b := WaveJob{Name: "y", Model: "lstm"}
	ab, ba := []WaveJob{a, b}, []WaveJob{b, a}
	if k1, k2 := waveKey(KindCPU, ab), waveKey(KindCPU, []WaveJob{a, b}); k1 != k2 {
		t.Errorf("same input, different keys: %q vs %q", k1, k2)
	}
	if kab, kba := waveKey(KindCPU, ab), waveKey(KindCPU, ba); kab == kba {
		t.Errorf("keys collide across orderings: %q", kab)
	}
	// Moving a field across a job boundary must change the key too.
	p1 := WaveJob{Model: "lstm", Priority: 1}
	p0 := WaveJob{Model: "lstm"}
	if k1, k2 := waveKey(KindCPU, []WaveJob{p1, p0}), waveKey(KindCPU, []WaveJob{p0, p1}); k1 == k2 {
		t.Errorf("keys collide across job boundaries: %q", k1)
	}

	m := &waveMemo{}
	sims := 0
	sim := func([]WaveJob) (*WaveResult, error) { sims++; return &WaveResult{TotalNs: float64(sims)}, nil }
	rAB, err := m.do(KindCPU, ab, sim)
	if err != nil {
		t.Fatal(err)
	}
	rBA, err := m.do(KindCPU, ba, sim)
	if err != nil {
		t.Fatal(err)
	}
	if rAB == rBA {
		t.Error("two orderings served from one memo entry")
	}
	if again, err := m.do(KindCPU, ab, sim); err != nil || again != rAB {
		t.Errorf("repeated ordering not served from its entry: res=%v err=%v", again, err)
	}
	if hits, misses := m.stats(); hits != 1 || misses != 2 {
		t.Errorf("stats = %d hits, %d misses; want 1, 2", hits, misses)
	}
}

// memoTestRuntimes builds one memoized and one memo-free runtime pair (CPU
// and GPU) over identical hardware, sharing nothing.
func memoTestRuntimes(t *testing.T, noMemo bool) (cpu, gpuRt NodeRuntime) {
	t.Helper()
	arb, err := multijob.NewArbiter("priority")
	if err != nil {
		t.Fatal(err)
	}
	rts := buildRuntimes([]Node{{CPU: hw.NewKNL()}, {GPU: gpu.NewP100()}},
		arb, noMemo)
	return rts[0], rts[1]
}

// TestWaveKeySoundness perturbs every WaveJob field of every job in a
// base wave, one at a time, and simulates each perturbed wave memo-free on
// both hardware kinds: whenever the key is unchanged the results must be
// deeply equal — the condition under which serving a memo hit is exact —
// and a Name change never changes the key. Renames stay non-empty: the
// engine labels every job, and the CPU simulator rejects an unnamed one
// (an error, which the memo never caches).
func TestWaveKeySoundness(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every perturbed wave on both runtimes")
	}
	cpuRt, gpuRt := memoTestRuntimes(t, true)
	base := []WaveJob{
		{Name: "a", Model: nn.LSTM, Priority: 1, Weight: 1},
		{Name: "b", Model: nn.DCGAN, Priority: 0, Weight: 0},
		{Name: "c", Model: InferKey(nn.LSTM, 2), Priority: 2, Weight: 1, Class: ClassInference},
	}
	type perturb struct {
		field string
		set   func(*WaveJob)
	}
	perturbs := []perturb{
		{"Name", func(j *WaveJob) { j.Name += "-renamed" }},
		{"Name", func(j *WaveJob) { j.Name = "z" }},
		{"Model", func(j *WaveJob) { j.Model = nn.DCGAN }},
		{"Model", func(j *WaveJob) { j.Model = InferKey(nn.DCGAN, 3) }},
		{"Priority", func(j *WaveJob) { j.Priority = 7 }},
		{"Priority", func(j *WaveJob) { j.Priority = 0 }},
		{"Weight", func(j *WaveJob) { j.Weight = 0 }},
		{"Weight", func(j *WaveJob) { j.Weight = 1 }},
		{"Weight", func(j *WaveJob) { j.Weight = -2 }},
		{"Weight", func(j *WaveJob) { j.Weight = 3 }},
		{"Class", func(j *WaveJob) { j.Class = "" }},
		{"Class", func(j *WaveJob) { j.Class = ClassTraining }},
		{"Class", func(j *WaveJob) { j.Class = ClassInference }},
	}
	for _, rt := range []NodeRuntime{cpuRt, gpuRt} {
		kind := rt.Kind()
		baseKey := waveKey(kind, base)
		want, err := rt.RunWave(base)
		if err != nil {
			t.Fatalf("%s base wave: %v", kind, err)
		}
		sameKey := 0
		for i := range base {
			for _, p := range perturbs {
				wave := append([]WaveJob(nil), base...)
				p.set(&wave[i])
				key := waveKey(kind, wave)
				if p.field == "Name" && key != baseKey {
					t.Errorf("%s job %d: renaming changed the key %q -> %q", kind, i, baseKey, key)
				}
				if key != baseKey {
					continue
				}
				sameKey++
				got, err := rt.RunWave(wave)
				if err != nil {
					t.Fatalf("%s job %d %s: %v", kind, i, p.field, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s job %d %s perturbed %+v: key unchanged but result %+v != %+v",
						kind, i, p.field, wave[i], got, want)
				}
			}
		}
		// Names on every job, the 0/1 weight pair and the training class
		// spellings all keep the key.
		if sameKey < 2*len(base)+3 {
			t.Errorf("%s: only %d perturbations kept the key", kind, sameKey)
		}
	}
}

// TestWaveMemoHitEquivalence is the memoization-hit property: replaying a
// sequence of wave compositions — recurrences and permutations included —
// through a memoized runtime returns results deeply equal to a fresh
// memo-free simulation of the same sequence, and the recurrences actually
// hit the cache.
func TestWaveMemoHitEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs CoTrain waves per composition")
	}
	memoCPU, memoGPU := memoTestRuntimes(t, false)
	freshCPU, freshGPU := memoTestRuntimes(t, true)

	j := func(model string, prio int) WaveJob {
		return WaveJob{Name: model + "#x", Model: model, Priority: prio, Weight: 1}
	}
	ab := []WaveJob{j(nn.LSTM, 0), j(nn.DCGAN, 1)}
	ba := []WaveJob{j(nn.DCGAN, 1), j(nn.LSTM, 0)}
	waves := [][]WaveJob{
		ab, ab, // straight recurrence: must hit
		ba,     // same multiset, new ordering: must simulate fresh
		ba, ab, // both orderings now cached
		{j(nn.LSTM, 0)},
		{j(nn.LSTM, 0)},
	}
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 5; i++ {
		waves = append(waves, waves[rng.Intn(len(waves))])
	}
	for _, pair := range []struct {
		name        string
		memo, fresh NodeRuntime
	}{{"cpu", memoCPU, freshCPU}, {"gpu", memoGPU, freshGPU}} {
		for i, wjs := range waves {
			got, err := pair.memo.RunWave(wjs)
			if err != nil {
				t.Fatalf("%s wave %d memoized: %v", pair.name, i, err)
			}
			want, err := pair.fresh.RunWave(wjs)
			if err != nil {
				t.Fatalf("%s wave %d fresh: %v", pair.name, i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s wave %d: memoized result %+v != fresh %+v", pair.name, i, got, want)
			}
		}
		hits, misses := pair.memo.(waveMemoStats).WaveMemoStats()
		if misses != 3 {
			t.Errorf("%s memo simulated %d distinct inputs, want 3 (ab, ba, lstm)", pair.name, misses)
		}
		if hits+misses != len(waves) {
			t.Errorf("%s memo counted %d lookups, want %d", pair.name, hits+misses, len(waves))
		}
		fh, fm := pair.fresh.(waveMemoStats).WaveMemoStats()
		if fh != 0 || fm != 0 {
			t.Errorf("%s memo-free runtime reports hits=%d misses=%d, want zeros", pair.name, fh, fm)
		}
	}
}

// TestWaveMemoErrorNotCached: a failed simulation propagates to its caller
// but is never published — the next caller re-simulates and can succeed,
// and the success is then served from the cache.
func TestWaveMemoErrorNotCached(t *testing.T) {
	m := &waveMemo{}
	wave := []WaveJob{{Model: "lstm"}}
	boom := fmt.Errorf("transient")
	fail := func([]WaveJob) (*WaveResult, error) { return nil, boom }
	ok := func([]WaveJob) (*WaveResult, error) { return &WaveResult{TotalNs: 1}, nil }
	if _, err := m.do(KindCPU, wave, fail); err != boom {
		t.Fatalf("want the simulation error, got %v", err)
	}
	res, err := m.do(KindCPU, wave, ok)
	if err != nil || res.TotalNs != 1 {
		t.Fatalf("retry after failure: res=%v err=%v", res, err)
	}
	if again, err := m.do(KindCPU, wave, fail); err != nil || again != res {
		t.Fatalf("cached success not served: res=%v err=%v", again, err)
	}
	hits, misses := m.stats()
	if hits != 1 || misses != 2 {
		t.Fatalf("counters after failure+retry+hit: hits=%d misses=%d, want 1/2", hits, misses)
	}
	if h, mi := (*waveMemo)(nil).stats(); h != 0 || mi != 0 {
		t.Fatalf("disabled memo reports hits=%d misses=%d, want zeros", h, mi)
	}
}

// TestWaveMemoHitAllocs: once a wave input is cached, looking it up again
// builds the key into the memo's own buffer and allocates nothing.
func TestWaveMemoHitAllocs(t *testing.T) {
	m := &waveMemo{}
	wave := []WaveJob{
		{Name: "a", Model: nn.LSTM, Priority: 3, Weight: 1.5},
		{Name: "b", Model: InferKey(nn.DCGAN, 4), Weight: 1, Class: ClassInference},
	}
	sim := func([]WaveJob) (*WaveResult, error) { return &WaveResult{}, nil }
	if _, err := m.do(KindGPU, wave, sim); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.do(KindGPU, wave, sim); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("memo hit allocates %.1f objects, want 0", allocs)
	}
}
