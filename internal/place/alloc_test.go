package place

import (
	"math"
	"testing"

	"opsched/internal/nn"
)

// TestPlaceJobsAllocsLogarithmic pins the obs-off event loop's allocation
// contract: admitting, placing and completing n jobs allocates O(log n)
// objects — the job table's doubling segments and the amortized growth of
// reused scratch — never O(n). Every event, wave launch and completion
// reuses engine-owned storage. Jobs arrive 10 ms apart, so waves rarely
// overlap and the wave memo stops missing after the first few gangs: a
// miss allocates the result it caches, which would otherwise blur the
// event loop's own count.
func TestPlaceJobsAllocsLogarithmic(t *testing.T) {
	sizes := []int{1000, 10000}
	if !testing.Short() {
		sizes = append(sizes, 100000)
	}
	allocs := make([]float64, len(sizes))
	for i, n := range sizes {
		w := MustSynthetic(n, 7, []string{nn.LSTM, nn.DCGAN}, 1e7)
		allocs[i] = testing.AllocsPerRun(1, func() {
			if _, err := PlaceJobs(w, Cluster{GPUs: 8}, Options{Policy: "model-aware"}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("n=%d: %.0f allocs", n, allocs[i])
	}
	// Per doubling of n, the job table adds one segment and a few scratch
	// slices may double once.
	const perDoubling = 4
	for i := 1; i < len(sizes); i++ {
		doublings := math.Log2(float64(sizes[i]) / float64(sizes[i-1]))
		if grow := allocs[i] - allocs[i-1]; grow > perDoubling*math.Ceil(doublings) {
			t.Errorf("n %d -> %d: allocations grew by %.0f (%.0f -> %.0f), want at most %d per doubling",
				sizes[i-1], sizes[i], grow, allocs[i-1], allocs[i], perDoubling)
		}
	}
}
