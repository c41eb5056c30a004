package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"opsched/internal/place"
)

// RunBatch feeds a closed workload through the streaming pipeline and
// waits for the drain: the same canonicalization, the same arrival order,
// the same engine, the same policy — so its Result (and Render) is
// byte-identical to place.PlaceJobs on identical inputs. The sweep
// package's golden matrix checks that equivalence in go test; it is what
// certifies the pipeline as a refactoring of the batch engine rather than
// a second scheduler.
func RunBatch(ctx context.Context, w place.Workload, c place.Cluster, opts place.Options) (*place.Result, error) {
	specs, err := w.Canonical()
	if err != nil {
		return nil, err
	}
	p, err := New(ctx, Config{Cluster: c, Options: opts})
	if err != nil {
		return nil, err
	}

	// Arrival order: by time, input index breaking ties — the batch
	// wrapper's exact sort, so admission sequence matches it.
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return specs[order[a]].ArrivalNs < specs[order[b]].ArrivalNs
	})

	go func() {
		for _, idx := range order {
			if err := p.Submit(specs[idx]); err != nil {
				return // pipeline failed or was cancelled; Wait reports it
			}
		}
		p.Close()
	}()

	res, err := p.Wait()
	if err != nil {
		return nil, err
	}
	// The pipeline reports jobs in admission (arrival) order; the batch
	// contract is workload input order.
	jobs := make([]place.PlacedJob, len(res.Jobs))
	for k, inputIdx := range order {
		jobs[inputIdx] = res.Jobs[k]
	}
	res.Jobs = jobs
	return res, nil
}

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
