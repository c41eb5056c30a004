package tracefile

import (
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

// FuzzReader: no trace or option makes the reader panic, and every spec
// Next returns without error has a finite arrival at or after the epoch
// and passes the admission check, so a replay never hands the engine a job
// it would reject. Reads resume past row errors in strict mode too. Seeds
// live in testdata/fuzz/FuzzReader and include an overflowing epoch
// (1e300 seconds), inadmissible weights and model names whose hash needs
// the upper half of uint32.
func FuzzReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, trace string, unitNs int64, compress float64, skip bool) {
		r, err := NewReader(strings.NewReader(trace), Options{
			TimeUnit: time.Duration(unitNs), Compress: compress, SkipMalformed: skip,
		})
		if err != nil {
			return
		}
		// Every call consumes at least one line, so this bound is never
		// reached by a reader that makes progress.
		for i := 0; i <= len(trace); i++ {
			j, err := r.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				continue
			}
			if math.IsNaN(j.ArrivalNs) || math.IsInf(j.ArrivalNs, 0) || j.ArrivalNs < 0 {
				t.Fatalf("accepted spec %+v has arrival %v", j, j.ArrivalNs)
			}
			if err := j.Check(i); err != nil {
				t.Fatalf("accepted spec %+v fails admission: %v", j, err)
			}
		}
		t.Fatalf("reader made no progress through a %d-byte trace", len(trace))
	})
}
