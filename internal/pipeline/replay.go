package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"opsched/internal/place"
)

// Source is an open stream of job specs — a tracefile.Reader, a generator,
// a network feed. Next returns io.EOF when the stream ends; any other
// error aborts the replay.
type Source interface {
	Next() (place.JobSpec, error)
}

// Replay drives a trace source through the pipeline. speed scales the
// wall-clock pacing of submissions against the trace's virtual arrival
// gaps: 1 replays at native rate, 60 compresses an hour into a minute, and
// <= 0 (or +Inf) submits as fast as the pipeline accepts — the benchmark
// and CI mode. Virtual time is untouched either way, so the sealed Result
// is independent of speed; jobs stream one at a time and are never
// materialized as a full slice. The Result lists jobs in stream order.
func Replay(ctx context.Context, cfg Config, src Source, speed float64) (*place.Result, error) {
	p, err := New(ctx, cfg)
	if err != nil {
		return nil, err
	}
	pace := speed > 0 && !math.IsInf(speed, 1)
	var start time.Time
	var epochNs float64
	first := true
	for {
		j, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			p.cancel()
			<-p.done
			return nil, fmt.Errorf("pipeline: replay source: %w", err)
		}
		if pace {
			if first {
				start, epochNs, first = time.Now(), j.ArrivalNs, false
			}
			due := time.Duration((j.ArrivalNs - epochNs) / speed)
			if d := due - time.Since(start); d > 0 {
				select {
				case <-time.After(d):
				case <-p.ctx.Done():
				}
			}
		}
		if err := p.Submit(j); err != nil {
			break // pipeline failed or was cancelled; Wait reports it
		}
	}
	p.Close()
	return p.Wait()
}
