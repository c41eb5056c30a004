package op

import (
	"strings"
	"testing"
	"testing/quick"

	"opsched/internal/hw"
)

func TestDims(t *testing.T) {
	d := Dims{32, 8, 8, 384}
	if got := d.Elems(); got != 786432 {
		t.Errorf("Elems() = %v, want 786432", got)
	}
	if got := d.Bytes(); got != 786432*4 {
		t.Errorf("Bytes() = %v, want %v", got, 786432*4)
	}
	if got := d.String(); got != "(32,8,8,384)" {
		t.Errorf("String() = %q, want (32,8,8,384)", got)
	}
	if got := (Dims{}).String(); got != "()" {
		t.Errorf("empty String() = %q, want ()", got)
	}
	if got := (Dims{7, -2, 1 << 40}).String(); got != "(7,-2,1099511627776)" {
		t.Errorf("String() = %q, want (7,-2,1099511627776)", got)
	}
	if (Dims{}).Elems() != 0 {
		t.Error("empty Elems() != 0")
	}
	if err := (Dims{1, 0}).Validate(); err == nil {
		t.Error("Validate accepted zero dim")
	}
	if err := d.Validate(); err != nil {
		t.Errorf("Validate() = %v", err)
	}
	c := d.Clone()
	c[0] = 1
	if d[0] != 32 {
		t.Error("Clone aliases original")
	}
	if !d.Equal(Dims{32, 8, 8, 384}) || d.Equal(Dims{32, 8, 8}) || d.Equal(Dims{32, 8, 8, 385}) {
		t.Error("Equal wrong")
	}
	if Dims(nil).Clone() != nil {
		t.Error("nil Clone should stay nil")
	}
}

func TestOpValidate(t *testing.T) {
	good := []*Op{
		Conv(Conv2D, 32, 8, 8, 384, 3, 384, 1),
		Conv(Conv2DBackpropFilter, 32, 8, 8, 384, 3, 384, 1),
		{Kind: MatMul, Input: Dims{64, 512}, Filter: Dims{512, 1024}},
		Elementwise(Relu, 32, 8, 8, 384),
		{Kind: MaxPooling, Input: Dims{32, 16, 16, 64}, Window: 2},
	}
	for _, o := range good {
		if err := o.Validate(); err != nil {
			t.Errorf("%s: Validate() = %v, want nil", o, err)
		}
	}
	bad := []*Op{
		{Kind: "Bogus", Input: Dims{1}},
		{Kind: Conv2D, Input: Dims{}},
		{Kind: Conv2D, Input: Dims{32, 8, 8}, Filter: Dims{3, 3, 8, 8}},
		{Kind: Conv2D, Input: Dims{32, 8, 8, 16}, Filter: Dims{3, 3, 8, 8}},
		{Kind: Conv2D, Input: Dims{32, 8, 8, 16}, Filter: Dims{3, 3, 16}},
		{Kind: Conv2D, Input: Dims{32, 8, -1, 16}, Filter: Dims{3, 3, 16, 16}},
		{Kind: MatMul, Input: Dims{64, 512}, Filter: Dims{511, 10}},
		{Kind: MatMul, Input: Dims{64}, Filter: Dims{64, 10}},
		{Kind: MaxPooling, Input: Dims{64, 10}},
	}
	for _, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", o)
		}
	}
}

func TestOutputDims(t *testing.T) {
	cases := []struct {
		op   *Op
		want Dims
	}{
		{Conv(Conv2D, 32, 16, 16, 64, 3, 128, 1), Dims{32, 16, 16, 128}},
		{Conv(Conv2D, 32, 16, 16, 64, 3, 128, 2), Dims{32, 8, 8, 128}},
		{Conv(Conv2DBackpropFilter, 32, 16, 16, 64, 3, 128, 1), Dims{3, 3, 64, 128}},
		{Conv(Conv2DBackpropInput, 32, 16, 16, 64, 3, 128, 1), Dims{32, 16, 16, 64}},
		{&Op{Kind: MatMul, Input: Dims{64, 512}, Filter: Dims{512, 10}}, Dims{64, 10}},
		{&Op{Kind: MaxPooling, Input: Dims{32, 16, 16, 64}, Window: 2}, Dims{32, 8, 8, 64}},
		{&Op{Kind: BiasAddGrad, Input: Dims{32, 8, 8, 384}}, Dims{384}},
		{&Op{Kind: Relu, Input: Dims{32, 8, 8, 384}}, Dims{32, 8, 8, 384}},
		{&Op{Kind: Concat, Input: Dims{32, 8, 8, 64}, NumInputs: 4}, Dims{32, 8, 8, 256}},
		{&Op{Kind: Tile, Input: Dims{8, 64}, NumInputs: 3}, Dims{24, 64}},
	}
	for _, tc := range cases {
		if got := tc.op.OutputDims(); !got.Equal(tc.want) {
			t.Errorf("%s.OutputDims() = %v, want %v", tc.op, got, tc.want)
		}
	}
}

func TestFLOPsConv(t *testing.T) {
	o := Conv(Conv2D, 32, 8, 8, 384, 3, 384, 1)
	want := 32.0 * 8 * 8 * 384 * 3 * 3 * 384 * 2
	if got := o.FLOPs(); got != want {
		t.Errorf("Conv2D FLOPs = %v, want %v", got, want)
	}
	bf := Conv(Conv2DBackpropFilter, 32, 8, 8, 384, 3, 384, 1)
	if got := bf.FLOPs(); got <= want {
		t.Errorf("BackpropFilter FLOPs = %v, want > forward %v", got, want)
	}
}

func TestSignatureGroupsInstances(t *testing.T) {
	a := Conv(Conv2D, 32, 8, 8, 384, 3, 384, 1)
	b := Conv(Conv2D, 32, 8, 8, 384, 3, 384, 1)
	c := Conv(Conv2D, 32, 17, 17, 384, 3, 384, 1)
	if a.Signature() != b.Signature() {
		t.Errorf("identical instances have different signatures: %q vs %q", a.Signature(), b.Signature())
	}
	if a.Signature() == c.Signature() {
		t.Errorf("different shapes share signature %q", a.Signature())
	}
	d := Conv(Conv2D, 32, 8, 8, 384, 3, 384, 2)
	if a.Signature() == d.Signature() {
		t.Error("different strides share signature")
	}
	if !strings.Contains(a.Signature(), "Conv2D") {
		t.Errorf("signature %q should contain the kind", a.Signature())
	}
}

func TestKindSets(t *testing.T) {
	for _, k := range Kinds() {
		if !k.Known() {
			t.Errorf("Kinds() returned unknown kind %q", k)
		}
	}
	if Kind("Nope").Known() {
		t.Error("unknown kind reported as known")
	}
	if !Conv2D.IsConv() || !Conv2DBackpropFilter.IsConv() || !Conv2DBackpropInput.IsConv() {
		t.Error("conv trio not IsConv")
	}
	if MatMul.IsConv() {
		t.Error("MatMul.IsConv() = true")
	}
	if !Conv2D.IsMKL() || !MatMul.IsMKL() {
		t.Error("MKL kinds misclassified")
	}
	if Tile.IsMKL() {
		t.Error("Tile should be a non-MKL (Eigen) op in the paper's setup")
	}
}

func TestCostValidForAllKinds(t *testing.T) {
	m := hw.NewKNL()
	for _, k := range Kinds() {
		o := &Op{Kind: k, Input: Dims{32, 8, 8, 64}}
		switch k {
		case Conv2D, Conv2DBackpropFilter, Conv2DBackpropInput:
			o.Filter = Dims{3, 3, 64, 64}
		case MatMul:
			o.Input = Dims{64, 512}
			o.Filter = Dims{512, 512}
		}
		c := o.Cost()
		if err := c.Validate(); err != nil {
			t.Errorf("%s: cost invalid: %v", k, err)
			continue
		}
		if tm := m.SoloTime(c, 1, hw.Spread); tm <= 0 {
			t.Errorf("%s: non-positive solo time %v", k, tm)
		}
	}
}

// TestConvOptimaMatchPaper checks the calibrated cost model against the
// paper's Figure 1 / Table II: at input (32,8,8,384) the three convolution
// kernels have interior optima ordered CBF < CBI < C2D (paper: 26, 36, 45),
// and the gap between the 68-thread default and the optimum is largest for
// Conv2DBackpropFilter (paper: 17.3%).
func TestConvOptimaMatchPaper(t *testing.T) {
	m := hw.NewKNL()
	mk := func(kind Kind) *Op { return Conv(kind, 32, 8, 8, 384, 3, 384, 1) }

	type res struct {
		kind     Kind
		p        int
		variance float64
	}
	var rs []res
	for _, kind := range []Kind{Conv2DBackpropFilter, Conv2DBackpropInput, Conv2D} {
		o := mk(kind)
		c := o.Cost()
		p, _, best := m.BestThreads(c, m.Cores, hw.Solo())
		t68 := m.SoloTime(c, 68, hw.Shared)
		rs = append(rs, res{kind, p, t68/best - 1})
	}
	for _, r := range rs {
		if r.p <= 8 || r.p >= 68 {
			t.Errorf("%s: optimum %d threads, want interior (paper: 26-45)", r.kind, r.p)
		}
		if r.variance <= 0 {
			t.Errorf("%s: 68-thread default not worse than optimum (variance %v)", r.kind, r.variance)
		}
	}
	if !(rs[0].p < rs[1].p && rs[1].p < rs[2].p) {
		t.Errorf("optima order = %d,%d,%d; paper wants CBF < CBI < C2D (26 < 36 < 45)",
			rs[0].p, rs[1].p, rs[2].p)
	}
	if !(rs[0].variance > rs[1].variance) {
		t.Errorf("variance order: CBF %.3f should exceed CBI %.3f (paper: 17.3%% vs 9.8%%)",
			rs[0].variance, rs[1].variance)
	}
}

// TestOptimumGrowsWithInputSize mirrors Table II: larger inputs need more
// threads for the best performance (Observation 2).
func TestOptimumGrowsWithInputSize(t *testing.T) {
	m := hw.NewKNL()
	for _, kind := range []Kind{Conv2DBackpropFilter, Conv2DBackpropInput, Conv2D} {
		small := Conv(kind, 32, 8, 8, 384, 3, 384, 1)
		large := Conv(kind, 32, 8, 8, 2048, 3, 2048, 1)
		pS, _, _ := m.BestThreads(small.Cost(), m.Cores, hw.Solo())
		pL, _, _ := m.BestThreads(large.Cost(), m.Cores, hw.Solo())
		if pL <= pS {
			t.Errorf("%s: optimum %d for large input <= %d for small", kind, pL, pS)
		}
		if pL < 60 {
			t.Errorf("%s: large-input optimum %d, paper reports 66-68", kind, pL)
		}
	}
}

// Property: FLOPs grow monotonically with batch size, and work grows when
// the batch doubles (per-class efficiency quirks may perturb adjacent
// batch sizes, but never by a factor of two).
func TestCostMonotoneInBatch(t *testing.T) {
	f := func(b1 uint8) bool {
		n := int(b1%63) + 1
		o1 := Conv(Conv2D, n, 8, 8, 64, 3, 64, 1)
		o2 := Conv(Conv2D, 2*n, 8, 8, 64, 3, 64, 1)
		return o1.FLOPs() < o2.FLOPs() && o1.Cost().WorkNs < o2.Cost().WorkNs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every catalog op with a valid random elementwise shape yields a
// cost that the hw model accepts.
func TestRandomShapesYieldValidCosts(t *testing.T) {
	f := func(a, b, c uint8) bool {
		o := Elementwise(Mul, int(a%100)+1, int(b%100)+1, int(c%100)+1)
		return o.Cost().Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConvHelperAndString(t *testing.T) {
	o := Conv(Conv2D, 32, 8, 8, 384, 3, 384, 1)
	if o.String() == "" || o.String() != o.Signature() {
		t.Error("String should equal Signature")
	}
	e := Elementwise(Relu, 4, 4)
	if !e.Input.Equal(Dims{4, 4}) {
		t.Errorf("Elementwise input = %v", e.Input)
	}
}
