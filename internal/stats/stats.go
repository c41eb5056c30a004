// Package stats provides the small formatting and summary helpers the
// experiment harness uses to render paper-style tables.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title   string
	header  []string
	rows    [][]string
	aligned bool
}

// NewTable returns a table with the given column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// AddRow appends one row; values are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowCells appends one pre-formatted row.
func (t *Table) AddRowCells(cells ...string) { t.rows = append(t.rows, cells) }

// Render returns the aligned text table.
func (t *Table) Render() string {
	cols := len(t.header)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}

	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(r []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			fmt.Fprintf(&b, "%-*s", width[i]+2, c)
		}
		b.WriteByte('\n')
	}
	if len(t.header) > 0 {
		writeRow(t.header)
		total := 0
		for _, w := range width {
			total += w + 2
		}
		b.WriteString(strings.Repeat("-", total))
		b.WriteByte('\n')
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Speedup returns base/measured, the paper's convention (higher is better).
func Speedup(baseNs, measuredNs float64) float64 {
	if measuredNs <= 0 {
		return 0
	}
	return baseNs / measuredNs
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean (0 for empty input or non-positive
// values).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	prod := 1.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		prod *= x
	}
	return math.Pow(prod, 1/float64(len(xs)))
}

// JainIndex is Jain's fairness index (Σx)² / (n·Σx²) over n allocations
// whose sum is sum and sum of squares sumSq: 1 when every allocation is
// equal, 1/n when one job holds everything. It is 1 for no allocations
// and for all-zero ones. Callers fold the sums themselves, so the index
// needs no slice of the allocations.
func JainIndex(sum, sumSq float64, n int) float64 {
	if n == 0 || sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumSq)
}

// NearestRank returns the nearest-rank p-quantile of an ascending sample:
// the ⌈p·n⌉-th smallest value, clamped to the sample, and 0 when the
// sample is empty. It is the one percentile rule of the repo, shared by
// the sealed placement report and the pipeline's live metrics, so a live
// percentile at drain equals the sealed one.
func NearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}
