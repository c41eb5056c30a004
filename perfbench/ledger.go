package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"opsched/internal/pipeline"
	"opsched/internal/place"
)

var epoch = time.Now()

// now reads the monotonic host clock, in nanoseconds.
func now() int64 { return int64(time.Since(epoch)) }

func secs(ns int64) float64 { return float64(ns) / 1e9 }

// timer accumulates the host time of one kind of call.
type timer struct {
	total int64
	n     int
	// samples keeps every call's duration when keep is set, for percentiles.
	keep    bool
	samples []int64
}

func (t *timer) add(d int64) {
	t.total += d
	t.n++
	if t.keep {
		t.samples = append(t.samples, d)
	}
}

// mean is the mean duration per call in nanoseconds, 0 before any call.
func (t *timer) mean() float64 {
	if t.n == 0 {
		return 0
	}
	return float64(t.total) / float64(t.n)
}

// percentile is the nearest-rank p-quantile of xs, 0 when xs is empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

func percentileNs(xs []int64, p float64) float64 {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return percentile(fs, p)
}

// ledger is the per-layer host-time account of engine runs.
type ledger struct {
	next   timer // tracefile.Reader.Next
	admit  timer // Engine.Admit
	pick   timer // Engine.PlaceAuto
	event  timer // Engine.ProcessNextEvent with no wave-memo miss
	sim    timer // Engine.ProcessNextEvent during which the memo missed
	finish timer // Engine.Finish
	// Wave-memo counters summed over the runs' engines.
	hits, misses int
}

// layersNs is the host time charged to every layer.
func (l *ledger) layersNs() int64 {
	return l.next.total + l.admit.total + l.pick.total + l.event.total + l.sim.total + l.finish.total
}

// drive runs src through a fresh engine with place.PlaceJobs's driver loop
// (internal/place/batch.go), taking arrivals from a stream in order as the
// pipeline's execution stage does. With a ledger every engine call is
// timed, and each ProcessNextEvent is charged to the event or the wave
// simulation layer by whether the wave memo missed during it.
func drive(c place.Cluster, opts place.Options, src pipeline.Source, l *ledger) (*place.Result, error) {
	e, err := place.NewEngine(c, opts)
	if err != nil {
		return nil, err
	}
	var next place.JobSpec
	pending, eof := false, false
	for {
		if !pending && !eof {
			j, err := src.Next()
			switch {
			case err == io.EOF:
				eof = true
			case err != nil:
				return nil, err
			default:
				next, pending = j, true
			}
		}
		if !pending && e.Completed() == e.Admitted() {
			break
		}
		eventNs, hasEvent := e.NextEventNs()

		// Arrivals strictly before — and exactly at — the next node event
		// are placed first.
		if pending && (!hasEvent || next.ArrivalNs <= eventNs) {
			pending = false
			if err := admitAndPlace(e, next, l); err != nil {
				return nil, err
			}
			continue
		}
		if !hasEvent {
			return nil, fmt.Errorf("stalled with %d of %d jobs done and no runnable wave", e.Completed(), e.Admitted())
		}
		if err := processEvent(e, l); err != nil {
			return nil, err
		}
	}
	if l == nil {
		return e.Finish(), nil
	}
	t0 := now()
	res := e.Finish()
	l.finish.add(now() - t0)
	h, m := e.WaveMemoStats()
	l.hits += h
	l.misses += m
	return res, nil
}

func admitAndPlace(e *place.Engine, j place.JobSpec, l *ledger) error {
	if l == nil {
		ji, err := e.Admit(j)
		if err != nil {
			return err
		}
		return e.PlaceAuto(ji, j.ArrivalNs)
	}
	t0 := now()
	ji, err := e.Admit(j)
	t1 := now()
	l.admit.add(t1 - t0)
	if err != nil {
		return err
	}
	err = e.PlaceAuto(ji, j.ArrivalNs)
	l.pick.add(now() - t1)
	return err
}

func processEvent(e *place.Engine, l *ledger) error {
	if l == nil {
		_, err := e.ProcessNextEvent()
		return err
	}
	_, m0 := e.WaveMemoStats()
	t0 := now()
	_, err := e.ProcessNextEvent()
	d := now() - t0
	if _, m1 := e.WaveMemoStats(); m1 > m0 {
		l.sim.add(d)
	} else {
		l.event.add(d)
	}
	return err
}

// pipeRun is the host-time account of hand-driven pipeline replays.
type pipeRun struct {
	submit      []int64 // how long each Submit blocked
	close, wait int64
	wall        int64 // New through Wait
	rejected    int   // jobs admission refused
}

// runPipeline replays src through a pipeline driven by hand with
// pipeline.Replay's unpaced loop, timing every Submit, the Close and the
// Wait for the drain, and adds the times to pr.
func runPipeline(cfg pipeline.Config, src pipeline.Source, pr *pipeRun) (*place.Result, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := now()
	p, err := pipeline.New(ctx, cfg)
	if err != nil {
		return nil, err
	}
	for {
		j, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			cancel()
			_, _ = p.Wait() // the source's error is the one to report
			return nil, fmt.Errorf("replay source: %w", err)
		}
		t0 := now()
		if err := p.Submit(j); err != nil {
			break // the pipeline failed; Wait reports why
		}
		pr.submit = append(pr.submit, now()-t0)
	}
	t0 := now()
	p.Close()
	t1 := now()
	res, err := p.Wait()
	t2 := now()
	pr.close += t1 - t0
	pr.wait += t2 - t1
	pr.wall += t2 - start
	pr.rejected += p.Snapshot().Rejected
	return res, err
}
