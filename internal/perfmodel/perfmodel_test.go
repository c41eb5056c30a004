package perfmodel

import (
	"math"
	"testing"
	"testing/quick"

	"opsched/internal/hw"
	"opsched/internal/nn"
	"opsched/internal/op"
)

func knl() *hw.Machine { return hw.NewKNL() }

func convTruth(m *hw.Machine) TimeFunc {
	o := op.Conv(op.Conv2DBackpropFilter, 32, 8, 8, 384, 3, 384, 1)
	return MachineTime(m, o.Cost())
}

func TestValidCasesCount(t *testing.T) {
	m := knl()
	cases := ValidCases(m)
	if len(cases) != 68 {
		t.Fatalf("ValidCases = %d, want 68 (34 spread + 34 shared, as in the paper)", len(cases))
	}
	spread, shared := 0, 0
	for _, c := range cases {
		switch c.Placement {
		case hw.Spread:
			spread++
			if c.Threads < 1 || c.Threads > 34 {
				t.Errorf("spread case with %d threads", c.Threads)
			}
		case hw.Shared:
			shared++
			if c.Threads%2 != 0 || c.Threads > 68 {
				t.Errorf("shared case with %d threads", c.Threads)
			}
		}
	}
	if spread != 34 || shared != 34 {
		t.Errorf("spread/shared = %d/%d, want 34/34", spread, shared)
	}
}

func TestSearchFindsNearOptimal(t *testing.T) {
	m := knl()
	truth := convTruth(m)
	for _, x := range []int{2, 4} {
		h := &HillClimb{Machine: m, Interval: x}
		pr := h.Search("conv", truth)
		gap := OptimalityGap(pr, truth, m)
		if gap > 0.05 {
			t.Errorf("x=%d: optimality gap %.3f, paper reports <2%% at x=4", x, gap)
		}
		if pr.Best.Threads <= 1 || pr.Best.Threads > m.Cores {
			t.Errorf("x=%d: best threads %d out of range", x, pr.Best.Threads)
		}
	}
}

func TestSearchStepBudget(t *testing.T) {
	m := knl()
	for _, x := range []int{2, 4, 8, 16} {
		h := &HillClimb{Machine: m, Interval: x}
		pr := h.Search("conv", convTruth(m))
		bound := m.Cores/x*2 + 2
		if pr.StepsUsed > bound {
			t.Errorf("x=%d: %d profiling steps, exceeds the paper's C/x*2 bound (%d)", x, pr.StepsUsed, bound)
		}
		if pr.StepsUsed < 2 {
			t.Errorf("x=%d: implausibly few steps %d", x, pr.StepsUsed)
		}
	}
}

func TestPredictExactOnSamples(t *testing.T) {
	m := knl()
	h := &HillClimb{Machine: m, Interval: 4}
	truth := convTruth(m)
	pr := h.Search("conv", truth)
	for _, pl := range hw.Placements() {
		for _, s := range pr.Samples(pl) {
			if got := pr.Predict(s.Threads, pl); got != s.TimeNs {
				t.Errorf("Predict(%d,%v) = %v, want measured %v", s.Threads, pl, got, s.TimeNs)
			}
		}
	}
}

func TestPredictInterpolatesBetweenSamples(t *testing.T) {
	m := knl()
	pr := (&HillClimb{Machine: m, Interval: 4}).Search("conv", convTruth(m))
	ss := pr.Samples(hw.Spread)
	if len(ss) < 2 {
		t.Skip("not enough spread samples")
	}
	a, b := ss[0], ss[1]
	mid := (a.Threads + b.Threads) / 2
	if mid == a.Threads || mid == b.Threads {
		t.Skip("no strict midpoint")
	}
	got := pr.Predict(mid, hw.Spread)
	lo, hi := math.Min(a.TimeNs, b.TimeNs), math.Max(a.TimeNs, b.TimeNs)
	if got < lo || got > hi {
		t.Errorf("interpolated value %v outside sample envelope [%v, %v]", got, lo, hi)
	}
}

// TestAccuracyDegradesWithInterval reproduces the shape of Table V: the
// interpolation accuracy is high for x=2 and falls off sharply by x=16.
func TestAccuracyDegradesWithInterval(t *testing.T) {
	m := knl()
	truth := convTruth(m)
	acc := make(map[int]float64)
	for _, x := range []int{2, 4, 8, 16} {
		pr := (&HillClimb{Machine: m, Interval: x}).Search("conv", truth)
		acc[x] = Accuracy(pr, truth, m)
	}
	if acc[2] < 0.90 {
		t.Errorf("accuracy at x=2 is %.3f, paper reports ~98%%", acc[2])
	}
	if acc[4] < 0.85 {
		t.Errorf("accuracy at x=4 is %.3f, paper reports ~94%%", acc[4])
	}
	if !(acc[2] >= acc[4] && acc[4] >= acc[8] && acc[8] >= acc[16]) {
		t.Errorf("accuracy not monotone in interval: %v", acc)
	}
	if acc[16] > 0.8 {
		t.Errorf("accuracy at x=16 is %.3f; paper reports a collapse (10-31%%)", acc[16])
	}
}

func TestTopConfigs(t *testing.T) {
	m := knl()
	pr := (&HillClimb{Machine: m, Interval: 2}).Search("conv", convTruth(m))
	top := pr.TopConfigs(m, 3)
	if len(top) != 3 {
		t.Fatalf("TopConfigs = %d entries, want 3", len(top))
	}
	// A longer backing array would keep every other ranked thread count
	// alive behind each shared candidate list.
	if cap(top) != 3 {
		t.Errorf("cap(TopConfigs) = %d, want 3", cap(top))
	}
	if top[0].TimeNs > top[1].TimeNs || top[1].TimeNs > top[2].TimeNs {
		t.Errorf("TopConfigs not sorted by time: %v", top)
	}
	seen := map[int]bool{}
	for _, c := range top {
		if seen[c.Threads] {
			t.Errorf("duplicate thread count %d in candidates", c.Threads)
		}
		seen[c.Threads] = true
	}
	// The best candidate should match the climb's optimum.
	if top[0].Threads != pr.Best.Threads {
		t.Errorf("top candidate %d threads != climb best %d", top[0].Threads, pr.Best.Threads)
	}
}

func TestStore(t *testing.T) {
	m := knl()
	st := NewStore()
	if st.Len() != 0 {
		t.Fatal("new store not empty")
	}
	pr := (&HillClimb{Machine: m, Interval: 4}).Search("sig-a", convTruth(m))
	st.Put(pr)
	if got, ok := st.Get("sig-a"); !ok || got != pr {
		t.Error("Get after Put failed")
	}
	if _, ok := st.Get("missing"); ok {
		t.Error("Get(missing) returned ok")
	}
	if sigs := st.Signatures(); len(sigs) != 1 || sigs[0] != "sig-a" {
		t.Errorf("Signatures = %v", sigs)
	}
	if st.StepsUsed() != pr.StepsUsed {
		t.Errorf("StepsUsed = %d, want %d", st.StepsUsed(), pr.StepsUsed)
	}
}

func TestProfileGraphCoversAllClasses(t *testing.T) {
	m := knl()
	model := nn.BuildDCGAN(64)
	st := ProfileGraph(m, model.Graph, 4)
	sigs := make(map[string]struct{})
	for _, n := range model.Graph.Nodes() {
		sigs[n.Op.Signature()] = struct{}{}
	}
	if st.Len() != len(sigs) {
		t.Errorf("profiled %d classes, graph has %d", st.Len(), len(sigs))
	}
	for sig := range sigs {
		if _, ok := st.Get(sig); !ok {
			t.Errorf("missing profile for %s", sig)
		}
	}
}

func TestLargestInstanceProfiles(t *testing.T) {
	m := knl()
	model := nn.BuildResNet50(64)
	st := ProfileGraph(m, model.Graph, 8)
	byKind := LargestInstanceProfiles(model.Graph, st)
	if len(byKind) == 0 {
		t.Fatal("no per-kind profiles")
	}
	pr, ok := byKind[op.Conv2D]
	if !ok {
		t.Fatal("no Conv2D profile")
	}
	// The chosen profile must belong to the largest-work Conv2D instance.
	var maxWork float64
	var maxSig string
	for _, n := range model.Graph.Nodes() {
		if n.Op.Kind == op.Conv2D {
			if w := n.Op.Cost().WorkNs; w > maxWork {
				maxWork, maxSig = w, n.Op.Signature()
			}
		}
	}
	if pr.Signature != maxSig {
		t.Errorf("Strategy 2 profile = %s, want largest instance %s", pr.Signature, maxSig)
	}
}

// Property: Predict is always positive and finite over the search space for
// any climbed profile of a valid cost.
func TestPredictAlwaysPositive(t *testing.T) {
	m := knl()
	f := func(workM uint16, x8 uint8) bool {
		cost := hw.OpCost{
			WorkNs: float64(workM%2000+1) * 1e4, SerialFrac: 0.1,
			SpawnNs: 20e3, Bytes: 1e6, WorkingSetBytes: 1e6,
			ShareFrac: 0.5, MissBase: 0.5,
		}
		x := []int{2, 4, 8, 16}[int(x8)%4]
		pr := (&HillClimb{Machine: m, Interval: x}).Search("p", MachineTime(m, cost))
		for _, c := range ValidCases(m) {
			v := pr.Predict(c.Threads, c.Placement)
			if !(v > 0) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPredictInterpolationPaths pins every branch of the profile
// predictor: exact hits, interpolation, both extrapolation directions,
// the positive clamp, single-sample and empty-placement fallbacks.
func TestPredictInterpolationPaths(t *testing.T) {
	pr := &Profile{samples: map[hw.Placement][]Config{
		hw.Shared: {
			{Threads: 2, TimeNs: 100, Placement: hw.Shared},
			{Threads: 4, TimeNs: 60, Placement: hw.Shared},
			{Threads: 8, TimeNs: 40, Placement: hw.Shared},
		},
	}}
	if got := pr.Predict(4, hw.Shared); got != 60 {
		t.Errorf("exact hit %v, want 60", got)
	}
	if got := pr.Predict(6, hw.Shared); got != 50 {
		t.Errorf("midpoint %v, want 50", got)
	}
	if got := pr.Predict(1, hw.Shared); got != 120 {
		t.Errorf("left extrapolation %v, want 120", got)
	}
	if got := pr.Predict(16, hw.Shared); got != 0 {
		// 40 + 2*(40-60) = 0 clamps to 1% of the left sample.
		if want := 0.01 * 60.0; got != want {
			t.Errorf("right extrapolation %v, want clamp %v", got, want)
		}
	}
	// Missing placement falls back to the populated one.
	if got := pr.Predict(4, hw.Spread); got != 60 {
		t.Errorf("fallback placement %v, want 60", got)
	}
	single := &Profile{samples: map[hw.Placement][]Config{
		hw.Spread: {{Threads: 4, TimeNs: 70, Placement: hw.Spread}},
	}}
	if got := single.Predict(64, hw.Spread); got != 70 {
		t.Errorf("single sample %v, want 70", got)
	}
	empty := &Profile{samples: map[hw.Placement][]Config{}}
	if got := empty.Predict(4, hw.Shared); !math.IsNaN(got) {
		t.Errorf("empty profile %v, want NaN", got)
	}
}
