package gpu

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewP100Valid(t *testing.T) {
	d := NewP100()
	if err := d.Validate(); err != nil {
		t.Fatalf("NewP100().Validate() = %v", err)
	}
	if d.SMs != 56 {
		t.Errorf("SMs = %d, want 56", d.SMs)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Device)
	}{
		{"zero SMs", func(d *Device) { d.SMs = 0 }},
		{"negative MaxThreadsPerSM", func(d *Device) { d.MaxThreadsPerSM = -1 }},
		{"zero BWBytesNs", func(d *Device) { d.BWBytesNs = 0 }},
		{"LatencyFloor above 1", func(d *Device) { d.LatencyFloor = 2 }},
		{"zero LatencyFloor", func(d *Device) { d.LatencyFloor = 0 }},
		{"negative TPBSensitivity", func(d *Device) { d.TPBSensitivity = -0.1 }},
		{"negative WaveOverhead", func(d *Device) { d.WaveOverhead = -0.01 }},
		{"negative Streams", func(d *Device) { d.Streams = -1 }},
		{"negative FlopsNs", func(d *Device) { d.FlopsNs = -1 }},
		{"negative KernelLaunchNs", func(d *Device) { d.KernelLaunchNs = -1 }},
		{"negative FlopsHalf", func(d *Device) { d.FlopsHalf = -1 }},
		{"negative HBMBytes", func(d *Device) { d.HBMBytes = -1 }},
		{"unknown sharing mode", func(d *Device) { d.Sharing = "time-travel" }},
	}
	for _, tc := range cases {
		d := NewP100()
		tc.mutate(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: bad device accepted", tc.name)
		}
	}
	for _, mode := range append(SharingModes(), "") {
		d := NewP100()
		d.Sharing = mode
		if err := d.Validate(); err != nil {
			t.Errorf("sharing mode %q rejected: %v", mode, err)
		}
	}
}

// TestValidateRejectsNaN: a NaN in any float field fails Validate instead
// of surfacing later, mid-wave, as a NaN kernel time.
func TestValidateRejectsNaN(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name   string
		mutate func(*Device)
	}{
		{"BWBytesNs", func(d *Device) { d.BWBytesNs = nan }},
		{"PeakTPB", func(d *Device) { d.PeakTPB = nan }},
		{"TPBSensitivity", func(d *Device) { d.TPBSensitivity = nan }},
		{"LatencyFloor", func(d *Device) { d.LatencyFloor = nan }},
		{"WaveOverhead", func(d *Device) { d.WaveOverhead = nan }},
		{"FlopsNs", func(d *Device) { d.FlopsNs = nan }},
		{"KernelLaunchNs", func(d *Device) { d.KernelLaunchNs = nan }},
		{"FlopsHalf", func(d *Device) { d.FlopsHalf = nan }},
		{"HBMBytes", func(d *Device) { d.HBMBytes = nan }},
	} {
		d := NewP100()
		tc.mutate(d)
		if err := d.Validate(); err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("NaN %s: Validate() = %v, want an error naming the field", tc.name, err)
		}
	}
}

// Property: every device Validate accepts prices every catalog kernel at a
// finite, positive time over the sweep grids — the guarantee the negative
// TPBSensitivity/WaveOverhead rejections exist for.
func TestValidatedDeviceTimeFinite(t *testing.T) {
	f := func(sens, wave uint8, bi, ti, ki uint8) bool {
		d := NewP100()
		// Sweep the occupancy constants over a generous non-negative range
		// (sensitivity up to ~2.55, wave overhead up to ~0.255).
		d.TPBSensitivity = float64(sens) / 100
		d.WaveOverhead = float64(wave) / 1000
		if err := d.Validate(); err != nil {
			return false
		}
		blocks := BlockGrid()[int(bi)%len(BlockGrid())]
		tpb := TPBGrid()[int(ti)%len(TPBGrid())]
		k := Catalog()[int(ki)%len(Catalog())]
		v := d.Time(k, blocks, tpb)
		return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// And the rejected negatives genuinely break the guarantee: a negative
	// sensitivity drives tpbEff's 1/(1+s·dev²) denominator through zero
	// (at s=-0.3 the 2048-thread column lands past the pole).
	d := NewP100()
	d.TPBSensitivity = -0.3
	bad := false
	for _, tpb := range TPBGrid() {
		k := Catalog()[0]
		if v := d.Time(k, d.DefaultBlocks, tpb); v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			bad = true
		}
	}
	if !bad {
		t.Error("negative TPBSensitivity never produced a non-positive time; rejection unnecessary?")
	}
}

// The MPS-style spatial sharing mode reprices co-run interference: cheaper
// than streams for compute-bound co-runs, costlier for memory-bound ones,
// with both modes still slower than running alone.
func TestSharingModeInterference(t *testing.T) {
	streams, mps := NewP100(), NewP100()
	mps.Sharing = SharingMPS
	if streams.interference(0.1) <= mps.interference(0.1) {
		t.Error("streams should pay more arbitration than MPS on compute-bound co-runs")
	}
	if streams.interference(0.9) >= mps.interference(0.9) {
		t.Error("MPS should pay more memory contention than streams on memory-bound co-runs")
	}
	for _, d := range []*Device{streams, mps} {
		for _, mf := range []float64{0, 0.25, 0.5, 0.75, 1} {
			if i := d.interference(mf); i <= 0 || i >= 1 {
				t.Errorf("%s interference(%v) = %v, want in (0,1)", d.Sharing, mf, i)
			}
		}
	}
	// Explicit "streams" and the default empty mode are the same pricing.
	def, explicit := NewP100(), NewP100()
	explicit.Sharing = SharingStreams
	a, _ := Lookup("Conv2D")
	b, _ := Lookup("BiasAdd")
	if def.CoRunTime(a, b, def.DefaultBlocks, def.DefaultTPB) !=
		explicit.CoRunTime(a, b, explicit.DefaultBlocks, explicit.DefaultTPB) {
		t.Error("explicit streams mode must price identically to the default")
	}
}

func TestDefaultNotOptimalTPB(t *testing.T) {
	d := NewP100()
	for _, name := range []string{"BiasAdd", "MaxPooling"} {
		k, ok := Lookup(name)
		if !ok {
			t.Fatalf("missing kernel %s", name)
		}
		def := d.DefaultTime(k)
		_, tpb, best := d.BestConfig(k, []int{d.DefaultBlocks}, TPBGrid())
		if tpb == d.DefaultTPB {
			t.Errorf("%s: default TPB already optimal; paper reports up to 18%% headroom", name)
		}
		gain := def/best - 1
		if gain <= 0.01 || gain > 0.40 {
			t.Errorf("%s: TPB headroom %.1f%%, paper reports up to 18%%", name, gain*100)
		}
	}
}

func TestDefaultNotOptimalBlocks(t *testing.T) {
	d := NewP100()
	k, _ := Lookup("BiasAdd")
	def := d.DefaultTime(k)
	blocks, _, best := d.BestConfig(k, BlockGrid(), []int{d.DefaultTPB})
	if blocks == d.DefaultBlocks {
		t.Error("default block count already optimal; paper reports up to 11% headroom")
	}
	gain := def/best - 1
	if gain <= 0.01 || gain > 0.30 {
		t.Errorf("block headroom %.1f%%, paper reports up to 11%%", gain*100)
	}
}

func TestTPBCurveShallow(t *testing.T) {
	// The paper: "there is little performance difference between a large
	// number of threads per block and a small one" (<3% between 10 and 100
	// threads for BiasAdd/MaxPooling) — the curve must be shallow, not a
	// cliff.
	d := NewP100()
	k, _ := Lookup("BiasAdd")
	t10 := d.Time(k, d.DefaultBlocks, 10)
	t100 := d.Time(k, d.DefaultBlocks, 100)
	if diff := math.Abs(t10-t100) / math.Min(t10, t100); diff > 0.12 {
		t.Errorf("TPB 10 vs 100 differ by %.1f%%, paper reports <3%%", diff*100)
	}
}

func TestCoRunBeatsSerial(t *testing.T) {
	d := NewP100()
	for _, k := range Catalog() {
		serial := d.SerialTime(k, k, d.DefaultBlocks, d.DefaultTPB)
		corun := d.CoRunTime(k, k, d.DefaultBlocks, d.DefaultTPB)
		if corun >= serial {
			t.Errorf("%s: co-run %.0f >= serial %.0f", k.Name, corun, serial)
			continue
		}
		speedup := serial / corun
		if speedup < 1.5 || speedup > 2.0 {
			t.Errorf("%s: co-run speedup %.2f, paper reports 1.75-1.91", k.Name, speedup)
		}
	}
}

func TestCoRunAsymmetric(t *testing.T) {
	d := NewP100()
	a, _ := Lookup("Conv2D")
	b, _ := Lookup("BiasAdd")
	co := d.CoRunTime(a, b, d.DefaultBlocks, d.DefaultTPB)
	long := math.Max(d.DefaultTime(a), d.DefaultTime(b))
	if co < long {
		t.Errorf("co-run %.0f faster than the longer kernel alone %.0f", co, long)
	}
	if co > d.SerialTime(a, b, d.DefaultBlocks, d.DefaultTPB) {
		t.Errorf("co-run slower than serial")
	}
}

func TestTimeEdgeCases(t *testing.T) {
	d := NewP100()
	k, _ := Lookup("Conv2D")
	if !math.IsInf(d.Time(k, 0, 1024), 1) {
		t.Error("zero blocks should be +Inf")
	}
	if !math.IsInf(d.Time(k, 56, 0), 1) {
		t.Error("zero TPB should be +Inf")
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("Nope"); ok {
		t.Error("Lookup(Nope) = ok")
	}
	if len(Catalog()) != 5 {
		t.Errorf("Catalog has %d kernels, want Table VII's 5", len(Catalog()))
	}
}

// Property: Time is positive and finite over the paper's sweep ranges.
func TestTimeFinite(t *testing.T) {
	d := NewP100()
	f := func(bi, ti, ki uint8) bool {
		blocks := BlockGrid()[int(bi)%len(BlockGrid())]
		tpb := TPBGrid()[int(ti)%len(TPBGrid())]
		k := Catalog()[int(ki)%len(Catalog())]
		v := d.Time(k, blocks, tpb)
		return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: co-run makespan is bounded by serial time and by the longer
// kernel alone.
func TestCoRunBounds(t *testing.T) {
	d := NewP100()
	f := func(ai, bi uint8) bool {
		a := Catalog()[int(ai)%len(Catalog())]
		b := Catalog()[int(bi)%len(Catalog())]
		co := d.CoRunTime(a, b, d.DefaultBlocks, d.DefaultTPB)
		long := math.Max(d.DefaultTime(a), d.DefaultTime(b))
		serial := d.SerialTime(a, b, d.DefaultBlocks, d.DefaultTPB)
		return co >= long && co <= serial
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
