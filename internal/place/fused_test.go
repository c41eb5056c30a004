package place

import (
	"testing"

	"opsched/internal/nn"
)

// TestFusedPickMatchesPick: the fused scan is the policies' equivalence
// property — on evolving engine state (waves in flight, queues staged,
// inference batches folding) fusedPick returns exactly the node the
// reference Views → Policy.Pick would, for every built-in policy.
func TestFusedPickMatchesPick(t *testing.T) {
	for _, policy := range Policies() {
		e, err := NewEngine(Cluster{Nodes: 3, GPUs: 5}, Options{Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		ref := referencePolicy(policy)
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
			want := ref.Pick(e.specs[ji], sp.ArrivalNs, referenceViews(e, ji, sp.ArrivalNs))
			got := e.fusedPick(ji, sp.ArrivalNs)
			if got != want {
				t.Fatalf("%s job %d at %v: fusedPick=%d, Views→Pick=%d", policy, i, sp.ArrivalNs, got, want)
			}
			if err := e.place(ji, got, sp.ArrivalNs); err != nil {
				t.Fatalf("%s place %d: %v", policy, i, err)
			}
		}
	}
}
