package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Title", "a", "bb", "ccc")
	tb.AddRow("x", 1.5, 10)
	tb.AddRowCells("longer", "y", "z")
	out := tb.Render()
	for _, want := range []string{"Title", "a", "bb", "ccc", "1.50", "longer"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("render has %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(200, 100); got != 2 {
		t.Errorf("Speedup = %v, want 2", got)
	}
	if got := Speedup(100, 0); got != 0 {
		t.Errorf("Speedup(x, 0) = %v, want 0", got)
	}
}

func TestMeans(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-9 {
		t.Errorf("GeoMean = %v, want 4", got)
	}
	if got := GeoMean([]float64{1, -1}); got != 0 {
		t.Errorf("GeoMean with negative = %v, want 0", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v", got)
	}
}

// Property: the arithmetic mean dominates the geometric mean for positive
// inputs.
func TestAMGMInequality(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v%1000) + 1
		}
		return Mean(xs) >= GeoMean(xs)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {-1, 1}, {0.10, 1}, {0.50, 5}, {0.95, 10}, {0.99, 10}, {1, 10}, {2, 10},
	}
	for _, tc := range cases {
		if got := NearestRank(sorted, tc.p); got != tc.want {
			t.Errorf("NearestRank(p=%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := NearestRank(nil, 0.5); got != 0 {
		t.Errorf("empty sample: got %v, want 0", got)
	}
	if got := NearestRank([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %v, want 7", got)
	}
}

// TestJainIndexEdges: empty and all-zero rate vectors degrade to 1, a
// uniform vector is exactly 1, a one-hot vector is 1/n.
func TestJainIndexEdges(t *testing.T) {
	if got := JainIndex(0, 0, 0); got != 1 {
		t.Errorf("empty jain %v, want 1", got)
	}
	if got := JainIndex(0, 0, 2); got != 1 {
		t.Errorf("all-zero jain %v, want 1", got)
	}
	if got := JainIndex(6, 12, 3); got != 1 {
		t.Errorf("uniform jain %v, want 1", got)
	}
	if got := JainIndex(1, 1, 4); got != 0.25 {
		t.Errorf("one-hot jain %v, want 0.25", got)
	}
}
