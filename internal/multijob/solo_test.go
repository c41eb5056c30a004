package multijob

import (
	"testing"

	"opsched/internal/hw"
	"opsched/internal/nn"
)

// TestPredictedSoloWorkNs pins the placement-facing work estimate: positive,
// deterministic, and monotone in graph size (DCGAN's graph outweighs a
// single LSTM cell-chain's cheapest op set on the same machine only if the
// estimate actually sums per-op predicted work).
func TestPredictedSoloWorkNs(t *testing.T) {
	m := hw.NewKNL()
	g := nn.MustBuild(nn.DCGAN).Graph
	w := PredictedSoloWorkNs(m, g)
	if w <= 0 {
		t.Fatalf("predicted solo work %v, want > 0", w)
	}
	if again := PredictedSoloWorkNs(m, g); again != w {
		t.Fatalf("estimate not deterministic: %v vs %v", again, w)
	}
}
