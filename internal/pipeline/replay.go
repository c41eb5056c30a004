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

// Replay drives a trace source through a fresh pipeline: Feed, then the
// END flag, then the sealed Result. speed paces submissions as in Feed;
// virtual time is untouched either way, so the Result is independent of
// speed. Jobs stream one at a time and are never materialized as a full
// slice. The Result lists jobs in stream order.
func Replay(ctx context.Context, cfg Config, src Source, speed float64) (*place.Result, error) {
	p, err := New(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if err := p.Feed(src, speed); err != nil && p.ctx.Err() == nil {
		// The source failed under a healthy pipeline: abandon the run.
		p.cancel()
		<-p.done
		return nil, err
	}
	// A pipeline that failed or was cancelled reports it through Wait.
	p.Close()
	return p.Wait()
}

// Feed submits every job of src in stream order. speed scales the
// wall-clock pacing of submissions against the trace's virtual arrival
// gaps: 1 replays at native rate, 60 compresses an hour into a minute, and
// <= 0 (or +Inf) submits as fast as the pipeline accepts — the benchmark
// and CI mode. Feed returns nil at the end of the stream, the source's
// error, or the error that stopped a submission (the pipeline was closed,
// failed or cancelled). It leaves the stream open, so other feeders may
// keep submitting; the caller Closes.
func (p *Pipeline) Feed(src Source, speed float64) error {
	pace := speed > 0 && !math.IsInf(speed, 1)
	var start time.Time
	var epochNs float64
	first := true
	for {
		j, err := src.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("pipeline: replay source: %w", err)
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
					return fmt.Errorf("pipeline: %w", p.ctx.Err())
				}
			}
		}
		if err := p.Submit(j); err != nil {
			return err
		}
	}
}
