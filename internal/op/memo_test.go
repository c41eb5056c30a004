package op_test

import (
	"testing"

	"opsched/internal/graph"
	"opsched/internal/nn"
	"opsched/internal/op"
)

// memoGraphs builds every training graph and every inference graph at
// batch sizes 1-8.
func memoGraphs(t *testing.T) []*graph.Graph {
	t.Helper()
	var gs []*graph.Graph
	for _, name := range nn.Names() {
		gs = append(gs, nn.MustBuild(name).Graph)
		for batch := 1; batch <= 8; batch++ {
			m, err := nn.BuildInference(name, batch)
			if err != nil {
				t.Fatal(err)
			}
			gs = append(gs, m.Graph)
		}
	}
	return gs
}

// TestMemoMatchesFreshDerivation: an instance's memoized signature and cost
// equal a fresh derivation on a field-for-field copy. Inception-v3 holds
// AvgPool instances that share a signature but not a window, so an intern
// key that dropped the window would hand one of them the other's cost.
func TestMemoMatchesFreshDerivation(t *testing.T) {
	for _, g := range memoGraphs(t) {
		for _, n := range g.Nodes() {
			o := n.Op
			sig, cost := o.Signature(), o.Cost()
			c := &op.Op{
				Kind: o.Kind, Input: o.Input.Clone(), Filter: o.Filter.Clone(),
				Stride: o.Stride, Window: o.Window, NumInputs: o.NumInputs,
			}
			if want := op.FreshSignature(c); sig != want {
				t.Fatalf("%s node %d: memoized signature %q, fresh %q", g.Name, n.ID, sig, want)
			}
			if want := op.FreshCost(c); cost != want {
				t.Fatalf("%s node %d (%s, window %d): memoized cost %+v, fresh %+v", g.Name, n.ID, sig, o.Window, cost, want)
			}
			if c.Signature() != sig || c.Cost() != cost {
				t.Fatalf("%s node %d: copy memoized a different class", g.Name, n.ID)
			}
		}
	}
}

// TestInternKeepsWindowsApart pins the case the intern key exists for: two
// pools with one signature and different windows keep their own costs.
func TestInternKeepsWindowsApart(t *testing.T) {
	global := &op.Op{Kind: op.AvgPool, Input: op.Dims{8, 10, 10, 2048}, Window: 10}
	small := &op.Op{Kind: op.AvgPool, Input: op.Dims{8, 10, 10, 2048}}
	if global.Signature() != small.Signature() {
		t.Fatalf("signatures differ: %q vs %q", global.Signature(), small.Signature())
	}
	if global.Cost() == small.Cost() {
		t.Fatal("pools with different windows share one cost")
	}
	if global.Cost() != op.FreshCost(global) || small.Cost() != op.FreshCost(small) {
		t.Fatal("memoized pool cost differs from a fresh derivation")
	}
}

// TestGraphSignatureStable: two independent builds of each model share a
// graph signature, and the signatures match the values the profile cache
// has always keyed on.
func TestGraphSignatureStable(t *testing.T) {
	want := map[string]string{
		nn.ResNet50:    "g2b3ec077ea79364d",
		nn.DCGAN:       "g5cc22b6c6955d6fa",
		nn.InceptionV3: "g2092d3512787d4e5",
		nn.LSTM:        "g0568b5f77d733df5",
	}
	for _, name := range nn.Names() {
		a, b := nn.MustBuild(name).Graph.Signature(), nn.MustBuild(name).Graph.Signature()
		if a != b {
			t.Errorf("%s: independent builds give %s and %s", name, a, b)
		}
		if a != want[name] {
			t.Errorf("%s: graph signature %s, want %s", name, a, want[name])
		}
	}
	if got := nn.MustBuildInference(nn.InceptionV3, 4).Graph.Signature(); got != "g0434391282845300" {
		t.Errorf("Inception-v3 inference batch 4: graph signature %s, want g0434391282845300", got)
	}
}

func TestMemoAllocs(t *testing.T) {
	o := op.Conv(op.Conv2DBackpropFilter, 32, 8, 8, 384, 3, 384, 2)
	o.Signature()
	if n := testing.AllocsPerRun(100, func() { o.Signature() }); n != 0 {
		t.Errorf("Signature after first use: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { o.Cost() }); n != 0 {
		t.Errorf("Cost after first use: %v allocs, want 0", n)
	}
}
