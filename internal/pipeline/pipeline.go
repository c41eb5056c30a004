// Package pipeline runs the cluster placement engine as an open,
// channel-fed stream: the trace-driven serving shape of the multi-tenant
// DNN scheduling literature. One goroutine owns the engine and its virtual
// clock and takes submissions and ticks off one input channel, in order.
// For each job it checks the spec (a failure is counted as a rejection,
// not fatal), tags its submission sequence, clamps a late arrival forward
// to the admission clock, and places it through the engine's Arrive call.
// After each engine call it records the completed jobs' queue and JCT
// samples and a copy of the engine's completion tally (place.Tally), so
// live percentiles, counts and means stay readable while jobs are still in
// flight; the counts and means are the ones the sealed Result reports.
// Every scheduling decision is made inline, in the one loop that owns the
// dataflow state, with no hand-off between goroutines.
//
// Shutdown is ordered, after Octopus's block pipeline: Close closes the
// input channel, which acts as the END flag. It is queued behind every
// submission already sent, and on reaching it the loop drains the engine
// so every in-flight job retires before the result is sealed. Context
// cancellation stops the loop without leaking a goroutine.
//
// The loop drives the same open place.Engine the batch API wraps, through
// the same Arrive and Drain calls, so replaying a closed, arrival-sorted
// workload through the pipeline renders byte-identically to
// place.PlaceJobs — the equivalence go test checks, which lets the
// simulator and the service share one engine. Replay drives a trace Source
// (for example a streaming tracefile.Reader) through the pipeline at native
// or time-compressed arrival rates without ever materializing the full job
// slice.
package pipeline

import (
	"context"
	"fmt"
	"sync"
	"time"

	"opsched/internal/place"
)

// msg is one input-channel message: a submitted job, or a tick.
type msg struct {
	spec   place.JobSpec
	tick   bool
	tickNs float64
}

// Config assembles a pipeline: the cluster and placement options its
// engine is built from, plus streaming knobs.
type Config struct {
	// Cluster and Options are place.PlaceJobs' parameters, verbatim.
	Cluster place.Cluster
	Options place.Options
	// Buffer is the input channel's depth: how many submissions and ticks
	// may queue before Submit blocks; <= 0 means 64. A deep buffer lets a
	// submitter run ahead of the loop instead of parking on every send.
	Buffer int
	// SnapshotEvery asks the pipeline to publish a live Snapshot to
	// OnSnapshot after every N-th job completion (0 disables). Driven by
	// completions, not wall time, so replay snapshots are deterministic.
	SnapshotEvery int
	// OnSnapshot receives live snapshots. It runs on the goroutine that
	// owns the engine, so it stalls placement while it runs, and it must
	// not call Submit, Tick or Wait on the same pipeline.
	OnSnapshot func(Snapshot)
}

func (c Config) buffer() int {
	if c.Buffer <= 0 {
		return 64
	}
	return c.Buffer
}

// Pipeline is one running stream over a placement engine. Submit jobs
// (and optionally Ticks) from any goroutine, Close to send the END flag,
// Wait for the sealed result; Snapshot reads live metrics at any point in
// between.
type Pipeline struct {
	cfg Config
	eng *place.Engine

	ctx    context.Context
	cancel context.CancelFunc

	in       chan msg
	inMu     sync.RWMutex
	inClosed bool

	met *liveMetrics
	// finJobs holds the outcomes of the jobs the last engine call
	// completed; retire reuses it.
	finJobs []place.PlacedJob
	// po holds the pre-bound pipeline instruments when Config.Options.Obs
	// carries a metrics registry; nil disables them (the loop pays one nil
	// check per message). Engine-level instruments attach inside
	// place.NewEngine from the same Observer.
	po *pipeObs

	// res and err are written by the loop before done closes.
	res  *place.Result
	err  error
	done chan struct{}
}

// New builds a fresh engine and starts the pipeline's goroutine over it.
// The pipeline runs until Close drains it or ctx is cancelled; every
// constructor error (invalid cluster, unknown policy/arbiter/trigger)
// surfaces here, before the goroutine starts.
func New(ctx context.Context, cfg Config) (*Pipeline, error) {
	eng, err := place.NewEngine(cfg.Cluster, cfg.Options)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cctx, cancel := context.WithCancel(ctx)
	p := &Pipeline{
		cfg: cfg, eng: eng,
		ctx: cctx, cancel: cancel,
		in:   make(chan msg, cfg.buffer()),
		met:  &liveMetrics{},
		done: make(chan struct{}),
	}
	if reg := cfg.Options.Obs.MetricsOrNil(); reg != nil {
		p.po = newPipeObs(reg)
	}
	go p.run()
	return p, nil
}

// Submit queues one job. It blocks while the input channel is full and
// fails once the pipeline is closed or cancelled. The spec is checked when
// the pipeline takes it off the channel: an invalid spec is rejected
// (counted in Snapshot), not returned here.
func (p *Pipeline) Submit(j place.JobSpec) error {
	return p.send(msg{spec: j})
}

// Tick advances the engine's virtual clock to nowNs even if no further job
// has arrived, retiring every due wave round — what lets a live server
// report completions between submissions. nowNs must be a finite time in
// [0, place.MaxTimeNs]; any other value is refused, since the admission
// clock it raises would push every later arrival past it. Batch and
// replay feeders never tick, keeping their runs deterministic.
func (p *Pipeline) Tick(nowNs float64) error {
	if !(nowNs >= 0 && nowNs <= place.MaxTimeNs) {
		return fmt.Errorf("pipeline: tick %v outside [0, %v] ns", nowNs, float64(place.MaxTimeNs))
	}
	return p.send(msg{tick: true, tickNs: nowNs})
}

func (p *Pipeline) send(m msg) error {
	p.inMu.RLock()
	defer p.inMu.RUnlock()
	if p.inClosed {
		return fmt.Errorf("pipeline: closed")
	}
	select {
	case p.in <- m:
		return nil
	case <-p.ctx.Done():
		return fmt.Errorf("pipeline: %w", p.ctx.Err())
	}
}

// Close declares the end of the stream: closing the input channel is the
// END flag, handled after every submission already queued. Safe to call
// more than once.
func (p *Pipeline) Close() {
	p.inMu.Lock()
	defer p.inMu.Unlock()
	if !p.inClosed {
		p.inClosed = true
		close(p.in)
	}
}

// Wait blocks until the pipeline has fully drained (or failed) and returns
// the sealed result: per-job outcomes in admission order. Callers that
// submitted out of input order reorder afterwards.
func (p *Pipeline) Wait() (*place.Result, error) {
	<-p.done
	p.cancel()
	if p.err != nil {
		return nil, p.err
	}
	if p.res == nil {
		return nil, fmt.Errorf("pipeline: cancelled before drain: %w", p.ctx.Err())
	}
	return p.res, nil
}

// Snapshot reads the live metrics: counts, means and p50/p95/p99 queue and
// JCT percentiles over everything completed so far. Safe from any
// goroutine, any time.
func (p *Pipeline) Snapshot() Snapshot {
	return p.met.Snapshot()
}

// run is the pipeline's one goroutine. It handles each input message in
// order until the END flag seals the result or the context is cancelled.
//
// A job is checked, tagged with its submission sequence and clamped
// forward to the admission clock (the high-water mark of arrivals and
// ticks): the engine's virtual time never runs backwards, so a
// late-reported trace row is treated as arriving "now". Engine.Arrive then
// applies the batch engine's exact tie rule and places the job. A tick
// advances the clock without an arrival (the live-serving mode). The END
// flag goes through Engine.Drain, which retires every remaining event
// before the Result is sealed.
func (p *Pipeline) run() {
	defer close(p.done)
	seq := 0
	clockNs := 0.0
	for {
		var m msg
		var ok bool
		select {
		case m, ok = <-p.in:
		case <-p.ctx.Done():
			return
		}
		if !ok {
			if p.retire(p.eng.Drain()) {
				p.res = p.eng.Finish()
			}
			return
		}
		if p.po != nil {
			p.po.depthSubmit.Set(float64(len(p.in)))
		}
		if m.tick {
			clockNs = max(clockNs, m.tickNs)
			if !p.retire(p.eng.AdvanceTo(m.tickNs)) {
				return
			}
			// Refresh the engine's sampled gauges (wave-memo counters,
			// queue depth) so a live scrape between ticks sees them.
			p.eng.ObsSample()
			p.met.noteNow(m.tickNs)
			if p.po != nil {
				p.po.ticks.Inc()
			}
			continue
		}
		var t0 time.Time
		if p.po != nil {
			t0 = time.Now()
			p.po.submitted.Inc()
		}
		j, i := m.spec, seq
		seq++
		if err := j.Check(i); err != nil {
			p.met.noteRejected()
			if p.po != nil {
				p.po.rejected.Inc()
			}
			continue
		}
		clamped := j.ArrivalNs < clockNs
		if clamped {
			j.ArrivalNs = clockNs
			if p.po != nil {
				p.po.clamped.Inc()
			}
		}
		clockNs = j.ArrivalNs
		if !p.retire(p.eng.Arrive(j)) {
			return
		}
		p.met.notePlaced(j.ArrivalNs, clamped)
		if p.po != nil {
			p.po.executionNs.Observe(float64(time.Since(t0)))
		}
	}
}

// retire records the jobs an engine call completed in the live metrics,
// publishing a snapshot on every SnapshotEvery-th completion, or records
// the call's error and unwinds the pipeline. It reports whether the call
// succeeded.
func (p *Pipeline) retire(fins []int, err error) bool {
	if err != nil {
		p.err = err
		p.cancel()
		return false
	}
	if len(fins) == 0 {
		return true
	}
	if p.po != nil {
		p.po.completed.Add(uint64(len(fins)))
	}
	p.finJobs = p.finJobs[:0]
	for _, ji := range fins {
		p.finJobs = append(p.finJobs, p.eng.Job(ji))
	}
	from := 0
	if every := p.cfg.SnapshotEvery; every > 0 && p.cfg.OnSnapshot != nil {
		// A snapshot due inside this call reads the tally as of its own
		// completion: fold the call's jobs, in the engine's order, onto
		// the last call's tally through the engine's own Tally.Add.
		t := p.met.tally // only this goroutine writes it
		for k := range p.finJobs {
			t.Add(&p.finJobs[k])
			if t.Completed()%every == 0 {
				p.met.noteCompleted(p.finJobs[from:k+1], &t)
				from = k + 1
				p.cfg.OnSnapshot(p.met.Snapshot())
			}
		}
	}
	t := p.eng.Tally()
	p.met.noteCompleted(p.finJobs[from:], &t)
	return true
}
