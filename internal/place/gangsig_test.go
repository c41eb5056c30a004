package place

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"opsched/internal/core"
	"opsched/internal/gpu"
	"opsched/internal/graph"
	"opsched/internal/hw"
	"opsched/internal/multijob"
	"opsched/internal/nn"
)

// TestStepsBucket pins the bucket boundaries: exact through stepsBucketCap,
// then the next power of two — so a 5-step and an 8-step job share a
// signature while a 4-step job does not.
func TestStepsBucket(t *testing.T) {
	cases := []struct{ steps, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 3}, {4, 4},
		{5, 8}, {6, 8}, {8, 8},
		{9, 16}, {16, 16},
		{17, 32}, {32, 32}, {33, 64},
	}
	for _, tc := range cases {
		if got := StepsBucket(tc.steps); got != tc.want {
			t.Errorf("StepsBucket(%d) = %d, want %d", tc.steps, got, tc.want)
		}
	}
}

// TestGangSignatureCanonicalization is the canonicalization table: the
// signature is order-invariant over the job multiset, separates hardware
// kinds, normalizes weights the way the wave simulators read them, ignores
// job names, and distinguishes everything that prices differently.
func TestGangSignatureCanonicalization(t *testing.T) {
	j := func(model string, steps, prio int, weight float64) WaveJob {
		return WaveJob{Model: model, StepsLeft: steps, Priority: prio, Weight: weight}
	}
	base := []WaveJob{j("lstm", 1, 0, 1), j("dcgan", 3, 5, 2), j("lstm", 2, 0, 1)}
	cases := []struct {
		name  string
		kindA string
		jobsA []WaveJob
		kindB string
		jobsB []WaveJob
		equal bool
	}{
		{"permutation", KindCPU, base,
			KindCPU, []WaveJob{base[2], base[0], base[1]}, true},
		{"reverse", KindCPU, base,
			KindCPU, []WaveJob{base[2], base[1], base[0]}, true},
		{"names ignored", KindCPU, []WaveJob{{Name: "a", Model: "lstm", StepsLeft: 1}},
			KindCPU, []WaveJob{{Name: "z", Model: "lstm", StepsLeft: 1}}, true},
		{"cpu vs gpu", KindCPU, base, KindGPU, base, false},
		{"weight defaulted", KindCPU, []WaveJob{j("lstm", 1, 0, 0)},
			KindCPU, []WaveJob{j("lstm", 1, 0, 1)}, true},
		{"negative weight defaulted", KindCPU, []WaveJob{j("lstm", 1, 0, -3)},
			KindCPU, []WaveJob{j("lstm", 1, 0, 1)}, true},
		{"weight matters", KindCPU, []WaveJob{j("lstm", 1, 0, 2)},
			KindCPU, []WaveJob{j("lstm", 1, 0, 1)}, false},
		{"priority matters", KindCPU, []WaveJob{j("lstm", 1, 5, 1)},
			KindCPU, []WaveJob{j("lstm", 1, 0, 1)}, false},
		{"model matters", KindCPU, []WaveJob{j("lstm", 1, 0, 1)},
			KindCPU, []WaveJob{j("dcgan", 1, 0, 1)}, false},
		{"same bucket", KindCPU, []WaveJob{j("lstm", 5, 0, 1)},
			KindCPU, []WaveJob{j("lstm", 8, 0, 1)}, true},
		{"bucket boundary", KindCPU, []WaveJob{j("lstm", 4, 0, 1)},
			KindCPU, []WaveJob{j("lstm", 5, 0, 1)}, false},
		{"multiset not set", KindCPU, []WaveJob{j("lstm", 1, 0, 1), j("lstm", 1, 0, 1)},
			KindCPU, []WaveJob{j("lstm", 1, 0, 1)}, false},
	}
	for _, tc := range cases {
		a := GangSignature(tc.kindA, tc.jobsA)
		b := GangSignature(tc.kindB, tc.jobsB)
		if (a == b) != tc.equal {
			t.Errorf("%s: signatures %q vs %q, want equal=%v", tc.name, a, b, tc.equal)
		}
		if !strings.HasPrefix(a, tc.kindA+"::") {
			t.Errorf("%s: signature %q not prefixed by kind %q", tc.name, a, tc.kindA)
		}
	}
}

// TestGangKeysFingerprintOrder: gangKeys' canonical signature matches
// GangSignature while the fingerprint preserves input order — equal for
// sorted input, distinct across orderings of the same multiset.
func TestGangKeysFingerprintOrder(t *testing.T) {
	a := WaveJob{Model: "dcgan", StepsLeft: 1}
	b := WaveJob{Model: "lstm", StepsLeft: 1}
	sigAB, fpAB := gangKeys(KindCPU, []WaveJob{a, b})
	sigBA, fpBA := gangKeys(KindCPU, []WaveJob{b, a})
	if sigAB != sigBA {
		t.Errorf("canonical signatures differ across orderings: %q vs %q", sigAB, sigBA)
	}
	if sigAB != GangSignature(KindCPU, []WaveJob{a, b}) {
		t.Errorf("gangKeys signature %q != GangSignature %q", sigAB, GangSignature(KindCPU, []WaveJob{a, b}))
	}
	if fpAB == fpBA {
		t.Errorf("fingerprints collide across orderings: %q", fpAB)
	}
	if fpAB != sigAB {
		t.Errorf("sorted input fingerprint %q != canonical signature %q", fpAB, sigAB)
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
	graphs := make(map[string]*graph.Graph)
	graphFor := func(model string) *graph.Graph {
		if g, ok := graphs[model]; ok {
			return g
		}
		g := nn.MustBuild(model).Graph
		graphs[model] = g
		return g
	}
	rts := buildRuntimes([]Node{{CPU: hw.NewKNL()}, {GPU: gpu.NewP100()}},
		arb, core.AllStrategies(), graphFor, noMemo)
	return rts[0], rts[1]
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
		return WaveJob{Name: model + "#x", Model: model, Priority: prio, Weight: 1, StepsLeft: 1}
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
		if hits == 0 || misses == 0 {
			t.Errorf("%s memo counters hits=%d misses=%d, want both positive", pair.name, hits, misses)
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
// but is never published — the next caller re-simulates and can succeed.
func TestWaveMemoErrorNotCached(t *testing.T) {
	m := &waveMemo{}
	boom := fmt.Errorf("transient")
	if _, err := m.do("cpu::x", "cpu::x", func() (*WaveResult, error) { return nil, boom }); err != boom {
		t.Fatalf("want the simulation error, got %v", err)
	}
	res, err := m.do("cpu::x", "cpu::x", func() (*WaveResult, error) { return &WaveResult{TotalNs: 1}, nil })
	if err != nil || res.TotalNs != 1 {
		t.Fatalf("retry after failure: res=%v err=%v", res, err)
	}
	hits, misses := m.stats()
	if hits != 0 || misses != 2 {
		t.Fatalf("counters after failure+retry: hits=%d misses=%d, want 0/2", hits, misses)
	}
}
