package pipeline

import (
	"context"
	"math"
	"testing"

	"opsched/internal/place"
)

// FuzzPipelineSubmit streams a short op sequence of submits and ticks
// through a pipeline. Every three bytes of ops make one op:
//
//   - a submit (op%4 != 3): model from a palette holding one unknown name,
//     an arrival delta of int8(b1) ms from the previous one (negative
//     deltas make late arrivals the pipeline clamps, or negative arrivals
//     Check rejects), Steps b2%9 (0..8: engine time grows faster than
//     linearly in the step count, see FuzzJobSpecCheck), inference class
//     on op&4, an SLO or a deadline on op&8;
//   - a tick (op%4 == 3): tickA, tickB, or the last arrival plus b2 ms,
//     picked by b1%3. tickA and tickB are free floats, so NaN, ±Inf and
//     values past place.MaxTimeNs reach Tick, which must refuse exactly
//     those outside [0, place.MaxTimeNs].
//
// The stream must drain, count every submission once as placed or
// rejected, report each placed job finishing after it arrived with a
// slowdown of at least 1, and leave a snapshot whose counts and means
// equal the sealed Result's exactly. The seeds hold the +Inf and 1e300 ticks that,
// accepted, stalled the drain and pushed a job past the time ceiling.
func FuzzPipelineSubmit(f *testing.F) {
	f.Add([]byte{0, 0, 1, 3, 0, 0, 1, 10, 1}, math.Inf(1), 0.0)
	f.Add([]byte{0, 0, 1, 3, 1, 0, 1, 10, 1}, 0.0, 1e300)
	f.Add([]byte{0, 0, 8, 4, 20, 0, 1, 0xf6, 3, 3, 2, 5, 12, 5, 0, 2, 1, 2}, math.NaN(), math.Inf(-1))
	f.Add([]byte{8, 4, 1, 16, 0, 0, 3, 0, 0, 7, 1, 4}, float64(place.MaxTimeNs), -1.0)
	f.Fuzz(func(t *testing.T, ops []byte, tickA, tickB float64) {
		const maxOps = 16
		models := []string{"lstm", "dcgan", "resnet-50", "inception-v3", "no-such-model"}
		p, err := New(context.Background(), Config{Cluster: place.Cluster{Nodes: 1, GPUs: 1}})
		if err != nil {
			t.Fatal(err)
		}
		submitted, arrivalNs := 0, 0.0
		for n := 0; n < maxOps && len(ops) >= 3; n, ops = n+1, ops[3:] {
			op, b1, b2 := ops[0], ops[1], ops[2]
			if op%4 == 3 {
				v := []float64{tickA, tickB, arrivalNs + float64(b2)*1e6}[int(b1)%3]
				valid := v >= 0 && v <= place.MaxTimeNs
				if err := p.Tick(v); (err == nil) != valid {
					t.Fatalf("Tick(%v) = %v, want an error iff %v is outside [0, %v]", v, err, v, float64(place.MaxTimeNs))
				}
				continue
			}
			arrivalNs += float64(int8(b1)) * 1e6
			j := place.JobSpec{Model: models[int(op>>4)%len(models)], ArrivalNs: arrivalNs, Steps: int(b2 % 9)}
			if op&4 != 0 {
				j.Class = place.ClassInference
				if op&8 != 0 {
					j.SLONs = 20e6
				}
			} else if op&8 != 0 {
				j.DeadlineNs = arrivalNs + 200e6
			}
			if err := p.Submit(j); err != nil {
				t.Fatalf("Submit(%+v): %v", j, err)
			}
			submitted++
		}
		p.Close()
		res, err := p.Wait()
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
		s := p.Snapshot()
		if s.Submitted != submitted || s.Rejected+len(res.Jobs) != submitted || s.Completed+s.Rejected != submitted {
			t.Fatalf("%d submitted, snapshot says %d submitted, %d rejected, %d completed; result holds %d jobs",
				submitted, s.Submitted, s.Rejected, s.Completed, len(res.Jobs))
		}
		checkDrained(t, s, res)
		for _, j := range res.Jobs {
			if !(j.FinishNs > j.ArrivalNs) || !(j.Slowdown >= 1) {
				t.Fatalf("job %s finished at %v after arriving at %v, slowdown %v", j.Name, j.FinishNs, j.ArrivalNs, j.Slowdown)
			}
		}
	})
}
