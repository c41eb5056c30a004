package place

import (
	"testing"

	"opsched/internal/nn"
)

// TestFusedPickMatchesPick: the fused scan is the policies' equivalence
// property — on evolving engine state (waves in flight, queues staged,
// inference batches folding) fusedPick returns exactly the node
// Views → Policy.Pick would, for every built-in policy.
func TestFusedPickMatchesPick(t *testing.T) {
	for _, policy := range []string{"spread", "binpack", "model-aware"} {
		e, err := NewEngine(Cluster{Nodes: 3, GPUs: 5}, Options{Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		training := MustSynthetic(30, 11, []string{nn.LSTM, nn.DCGAN, nn.ResNet50}, 2e6)
		serving := MustSyntheticInference(12, 13, []string{nn.DCGAN}, 3e6, 50e6)
		w := training.Merge(serving)
		for i, sp := range w {
			ji, err := e.Admit(sp)
			if err != nil {
				t.Fatalf("%s job %d: %v", policy, i, err)
			}
			// Advance the clock so picks see waves mid-flight, drained
			// nodes and staged queues, not just an empty fleet.
			if _, err := e.AdvanceTo(sp.ArrivalNs); err != nil {
				t.Fatalf("%s advance %d: %v", policy, i, err)
			}
			want := e.pol.Pick(e.specs[ji], sp.ArrivalNs, e.Views(ji, sp.ArrivalNs))
			got, ok := e.fusedPick(ji, sp.ArrivalNs)
			if !ok {
				t.Fatalf("%s: fusedPick refused built-in policy", policy)
			}
			if got != want {
				t.Fatalf("%s job %d at %v: fusedPick=%d, Views→Pick=%d", policy, i, sp.ArrivalNs, got, want)
			}
			if err := e.Place(ji, got, sp.ArrivalNs); err != nil {
				t.Fatalf("%s place %d: %v", policy, i, err)
			}
		}
	}
}

// TestFusedPickFallback: a custom policy the engine cannot fuse falls back
// to the materialized Views → Pick path and still places.
func TestFusedPickFallback(t *testing.T) {
	e, err := NewEngine(Cluster{GPUs: 2}, Options{Policy: "spread"})
	if err != nil {
		t.Fatal(err)
	}
	e.pol = pickFirst{}
	ji, err := e.Admit(JobSpec{Model: "lstm"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.fusedPick(ji, 0); ok {
		t.Fatal("fusedPick claimed a custom policy")
	}
	if err := e.PlaceAuto(ji, 0); err != nil {
		t.Fatal(err)
	}
	if e.placed[ji].Node != 0 {
		t.Fatalf("fallback placed on node %d, want 0", e.placed[ji].Node)
	}
}

// pickFirst is a minimal non-built-in policy for the fallback test.
type pickFirst struct{}

func (pickFirst) Name() string                          { return "pick-first" }
func (pickFirst) Pick(JobSpec, float64, []NodeView) int { return 0 }
