package pipeline

import (
	"fmt"
	"time"

	"opsched/internal/place"
)

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

// placement is stage 2: it owns the placement policy. For each admitted
// job it forwards the job to execution, waits for execution's grant — the
// live node views at the job's virtual arrival instant — runs Policy.Pick,
// and answers with the chosen node. The handshake keeps the engine's state
// single-threaded (execution owns it) while the decision itself lives
// here; because the policy is a pure function of (spec, now, views), the
// pick is byte-identical to the engine's own PlaceAuto path.
func (p *Pipeline) placement(in <-chan stageMsg, out chan<- stageMsg, grants <-chan grantMsg, picks chan<- pickMsg) {
	defer close(p.stageDone[stagePlacement])
	defer close(out)
	for {
		m, ok := recvMsg(p.ctx, in)
		if !ok {
			return
		}
		if p.po != nil {
			p.po.depthAdmission.Set(float64(len(in)))
		}
		switch m.flag {
		case flagEnd:
			sendMsg(p.ctx, out, m)
			return
		case flagReject, flagTick:
			if !sendMsg(p.ctx, out, m) {
				return
			}
		case flagJob:
			if !sendMsg(p.ctx, out, m) {
				return
			}
			g, ok := recvMsg(p.ctx, grants)
			if !ok {
				return
			}
			// Time the pure policy decision — the handshake waits measure
			// execution, not this stage.
			var t0 time.Time
			if p.po != nil {
				t0 = time.Now()
			}
			node := p.pol.Pick(g.spec, g.nowNs, g.views)
			if p.po != nil {
				p.po.placementNs.Observe(float64(time.Since(t0)))
			}
			if !sendMsg(p.ctx, picks, pickMsg{node: node}) {
				return
			}
		}
	}
}

// execution is stage 3: it owns the engine and the virtual clock. Arrivals
// interleave with node events under the batch engine's exact tie rule —
// only events strictly before the arrival are retired first, so a job
// arriving as a node frees can still join that node's next wave. Ticks
// advance the clock without an arrival (the live-serving mode); the END
// flag drains every remaining event, seals the Result, and propagates to
// metrics ahead of the channel close.
func (p *Pipeline) execution(in <-chan stageMsg, grants chan<- grantMsg, picks <-chan pickMsg, out chan<- evMsg) {
	defer close(p.stageDone[stageExecution])
	defer close(out)
	eng := p.eng
	emit := func(fins []int) bool {
		for _, ji := range fins {
			job := eng.Job(ji)
			if !sendMsg(p.ctx, out, evMsg{kind: evCompleted, job: job, atNs: job.FinishNs}) {
				return false
			}
		}
		return true
	}
	for {
		m, ok := recvMsg(p.ctx, in)
		if !ok {
			return
		}
		if p.po != nil {
			p.po.depthPlacement.Set(float64(len(in)))
		}
		switch m.flag {
		case flagReject:
			if !sendMsg(p.ctx, out, evMsg{kind: evRejected}) {
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
			if !emit(fins) {
				return
			}
			if !sendMsg(p.ctx, out, evMsg{kind: evTick, atNs: m.tickNs}) {
				return
			}
		case flagJob:
			var t0 time.Time
			if p.po != nil {
				t0 = time.Now()
			}
			at := m.spec.ArrivalNs
			for {
				evNs, has := eng.NextEventNs()
				if !has || evNs >= at {
					break
				}
				fins, err := eng.ProcessNextEvent()
				if err != nil {
					p.fail(err)
					return
				}
				if !emit(fins) {
					return
				}
			}
			ji, err := eng.Admit(m.spec)
			if err != nil {
				p.fail(err)
				return
			}
			if cap(p.grantBuf) < eng.Nodes() {
				p.grantBuf = make([]place.NodeView, eng.Nodes())
			}
			vs := p.grantBuf[:eng.Nodes()]
			eng.ViewsInto(ji, at, vs)
			g := grantMsg{ji: ji, nowNs: at, spec: eng.Spec(ji), views: vs}
			if !sendMsg(p.ctx, grants, g) {
				return
			}
			pk, ok := recvMsg(p.ctx, picks)
			if !ok {
				return
			}
			if err := eng.Place(ji, pk.node, at); err != nil {
				p.fail(err)
				return
			}
			if !sendMsg(p.ctx, out, evMsg{kind: evPlaced, atNs: at}) {
				return
			}
			if p.po != nil {
				p.po.executionNs.Observe(float64(time.Since(t0)))
			}
		case flagEnd:
			for eng.Completed() < eng.Admitted() {
				if _, has := eng.NextEventNs(); !has {
					p.fail(fmt.Errorf("pipeline: stalled with %d of %d jobs done and no runnable wave",
						eng.Completed(), eng.Admitted()))
					return
				}
				fins, err := eng.ProcessNextEvent()
				if err != nil {
					p.fail(err)
					return
				}
				if !emit(fins) {
					return
				}
			}
			p.res = eng.Finish()
			sendMsg(p.ctx, out, evMsg{flag: flagEnd})
			return
		}
	}
}

// metricsStage is stage 4: it folds execution's event stream into the live
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
			n := p.met.noteCompleted(m.job)
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
