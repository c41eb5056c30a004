package pipeline

import "time"

// admission is stage 1: it validates each submitted spec (rejections flow
// downstream as flagReject messages, so the metrics stage counts them),
// tags it with its submission sequence, and clamps out-of-order arrivals
// forward to the admission clock — the engine's virtual time never runs
// backwards, so a late-reported trace row is treated as arriving "now".
// On input close it forwards the END flag and closes its output.
func (p *Pipeline) admission(in <-chan stageMsg, out chan<- stageMsg) {
	defer close(p.stageDone[stageAdmission])
	defer close(out)
	seq := 0
	clockNs := 0.0 // admission high-water mark over arrivals and ticks
	for {
		m, ok := recvMsg(p.ctx, in)
		if !ok {
			if p.ctx.Err() == nil {
				// Input closed cleanly: the END flag enters the chain here.
				sendMsg(p.ctx, out, stageMsg{flag: flagEnd})
			}
			return
		}
		if p.po != nil {
			p.po.depthSubmit.Set(float64(len(in)))
		}
		switch m.flag {
		case flagTick:
			if m.tickNs > clockNs {
				clockNs = m.tickNs
			}
			if !sendMsg(p.ctx, out, m) {
				return
			}
		case flagJob:
			// Stage latency includes the downstream send: a blocked send
			// is this stage's backpressure, and the histogram should see it.
			var t0 time.Time
			if p.po != nil {
				t0 = time.Now()
				p.po.submitted.Inc()
			}
			i := seq
			seq++
			p.met.noteSubmitted()
			j := m.spec
			if err := j.Check(i); err != nil {
				if !sendMsg(p.ctx, out, stageMsg{flag: flagReject, seq: i, err: err}) {
					return
				}
				if p.po != nil {
					p.po.admissionNs.Observe(float64(time.Since(t0)))
				}
				continue
			}
			if j.ArrivalNs < clockNs {
				j.ArrivalNs = clockNs
				p.met.noteClamped()
				if p.po != nil {
					p.po.clamped.Inc()
				}
			} else {
				clockNs = j.ArrivalNs
			}
			if !sendMsg(p.ctx, out, stageMsg{flag: flagJob, seq: i, spec: j}) {
				return
			}
			if p.po != nil {
				p.po.admissionNs.Observe(float64(time.Since(t0)))
			}
		}
	}
}

// execution is stage 2: it owns the engine and the virtual clock. Each
// admitted job goes through Engine.Arrive — the batch engine's exact tie
// rule, then the engine's own placement decision — and the END flag through
// Engine.Drain, which retires every remaining event before the Result is
// sealed and the flag propagates to metrics ahead of the channel close.
// Ticks advance the clock without an arrival (the live-serving mode).
//
// Messages cross stage boundaries in bursts: execution takes every message
// already buffered on its input at once and hands metrics the burst's
// events together at its end. A goroutine parked on a channel is then
// woken once per burst rather than once per job — on two CPUs each such
// wake-up, paid by execution, costs a tenth or more of placing a job on a
// 10k-node fleet. Nothing is held while execution waits for input, and an
// event burst never exceeds the channel's depth, so it blocks only on a
// backlogged metrics stage.
func (p *Pipeline) execution(in <-chan stageMsg, out chan<- evMsg) {
	defer close(p.stageDone[stageExecution])
	defer close(out)
	eng := p.eng
	burst := make([]stageMsg, 0, cap(in))
	held := make([]evMsg, 0, cap(out))
	flush := func() bool {
		for _, h := range held {
			if !sendMsg(p.ctx, out, h) {
				return false
			}
		}
		held = held[:0]
		return true
	}
	post := func(m evMsg) bool {
		held = append(held, m)
		return len(held) < cap(out) || flush()
	}
	emit := func(fins []int) bool {
		for _, ji := range fins {
			job := eng.Job(ji)
			if !post(evMsg{kind: evCompleted, done: completionOf(&job)}) {
				return false
			}
		}
		return true
	}
	for {
		var ok bool
		if burst, ok = recvBurst(p.ctx, in, burst[:0]); !ok {
			return
		}
		for i, m := range burst {
			if p.po != nil {
				p.po.depthAdmission.Set(float64(len(burst) - 1 - i + len(in)))
			}
			switch m.flag {
			case flagReject:
				if !post(evMsg{kind: evRejected}) {
					return
				}
			case flagTick:
				fins, err := eng.AdvanceTo(m.tickNs)
				if err != nil {
					p.fail(err)
					return
				}
				// Refresh the engine's sampled gauges (wave-memo counters,
				// queue depth) so a live scrape between ticks sees them.
				eng.ObsSample()
				if p.po != nil {
					p.po.ticks.Inc()
				}
				if !emit(fins) || !post(evMsg{kind: evTick, atNs: m.tickNs}) {
					return
				}
			case flagJob:
				var t0 time.Time
				if p.po != nil {
					t0 = time.Now()
				}
				fins, err := eng.Arrive(m.spec)
				if err != nil {
					p.fail(err)
					return
				}
				if !emit(fins) || !post(evMsg{kind: evPlaced, atNs: m.spec.ArrivalNs}) {
					return
				}
				if p.po != nil {
					p.po.executionNs.Observe(float64(time.Since(t0)))
				}
			case flagEnd:
				fins, err := eng.Drain()
				if err != nil {
					p.fail(err)
					return
				}
				if !emit(fins) || !flush() {
					return
				}
				p.res = eng.Finish()
				sendMsg(p.ctx, out, evMsg{flag: flagEnd})
				return
			}
		}
		if !flush() {
			return
		}
	}
}

// metricsStage is stage 3: it folds execution's event stream into the live
// accumulator and publishes periodic snapshots. Publication is driven by
// completion count, not wall time, so a replayed trace produces the same
// snapshot sequence every run.
func (p *Pipeline) metricsStage(in <-chan evMsg) {
	defer close(p.stageDone[stageMetrics])
	for {
		m, ok := recvMsg(p.ctx, in)
		if !ok || m.flag == flagEnd {
			return
		}
		var t0 time.Time
		if p.po != nil {
			p.po.depthEvents.Set(float64(len(in)))
			t0 = time.Now()
		}
		switch m.kind {
		case evRejected:
			p.met.noteRejected()
			if p.po != nil {
				p.po.rejected.Inc()
			}
		case evPlaced:
			p.met.notePlaced(m.atNs)
		case evTick:
			p.met.noteNow(m.atNs)
		case evCompleted:
			n := p.met.noteCompletion(m.done)
			if p.po != nil {
				p.po.completed.Inc()
			}
			if p.cfg.SnapshotEvery > 0 && n%p.cfg.SnapshotEvery == 0 && p.cfg.OnSnapshot != nil {
				p.cfg.OnSnapshot(p.met.Snapshot())
			}
		}
		if p.po != nil {
			p.po.metricsNs.Observe(float64(time.Since(t0)))
		}
	}
}
