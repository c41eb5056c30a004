package place

import (
	"fmt"

	"opsched/internal/obs"
)

// Trace process ids: the cluster's node tracks and the per-job async
// lifecycle spans render as two Perfetto processes.
const (
	obsPidNodes = 1
	obsPidJobs  = 2
)

// engineObs is the engine's pre-bound instrument set: every metric the
// engine emits, resolved against the attached registry once at
// construction so the event loop never does a name lookup. All emission
// sites guard on `e.eo != nil` (metrics) or `e.tr != nil` (tracer) — the
// disabled engine pays one nil check and zero allocations per site,
// which the bench gate's allocs/op comparison enforces.
type engineObs struct {
	reg *obs.Registry

	admitted       *obs.Counter
	completedTrain *obs.Counter
	completedInfer *obs.Counter
	waveLaunches   *obs.Counter
	waveRounds     *obs.Counter
	events         *obs.Counter
	placeScanNs    *obs.Histogram
	preemptions    *obs.Counter
	migrations     *obs.Counter
	firings        *obs.CounterVec
	memoHits       *obs.Counter
	memoMisses     *obs.Counter

	// Per-class SLO attainment: inference requests against their SLONs,
	// training jobs against their deadlines (training's latency objective).
	// The ratio gauges read the engine's Tally.
	sloMet        *obs.CounterVec
	sloMissed     *obs.CounterVec
	sloAttainment *obs.GaugeVec

	// Fleet-wide staged-queue gauges.
	queueDepth *obs.Gauge
	queuedWork *obs.Gauge

	// Deltas already folded into memoHits/memoMisses (the engine's memos
	// count cumulatively; ObsSample re-publishes the difference).
	lastMemoHits   int
	lastMemoMisses int
}

// newEngineObs binds the engine's instruments against the registry.
func newEngineObs(reg *obs.Registry) *engineObs {
	eo := &engineObs{
		reg: reg,
		admitted: reg.Counter("opsched_engine_jobs_admitted_total",
			"Jobs admitted into the placement engine."),
		waveLaunches: reg.Counter("opsched_engine_wave_launches_total",
			"Gang waves launched across the fleet."),
		waveRounds: reg.Counter("opsched_engine_wave_rounds_total",
			"Lockstep wave rounds retired (one step per resident job)."),
		events: reg.Counter("opsched_engine_events_total",
			"Node events retired through the event loop."),
		placeScanNs: reg.Histogram("opsched_engine_placement_scan_ns",
			"Wall-clock nanoseconds per placement scan (PlaceAuto pick).",
			obs.ExpBuckets(100, 10, 8)),
		preemptions: reg.Counter("opsched_engine_preemptions_total",
			"Jobs checkpointed out of cut waves."),
		migrations: reg.Counter("opsched_engine_migrations_total",
			"Checkpoint restores that moved to a different node."),
		firings: reg.CounterVec("opsched_engine_trigger_firings_total",
			"Wave cuts requested, by preemption trigger.", "trigger"),
		memoHits: reg.Counter("opsched_engine_wave_memo_hits_total",
			"RunWave calls served from the fleet-wide wave memo."),
		memoMisses: reg.Counter("opsched_engine_wave_memo_misses_total",
			"Wave simulations actually run (memo misses)."),
		sloMet: reg.CounterVec("opsched_engine_slo_met_total",
			"Completed jobs that met their latency objective (inference SLO or training deadline), by class.", "class"),
		sloMissed: reg.CounterVec("opsched_engine_slo_missed_total",
			"Completed jobs that missed their latency objective, by class.", "class"),
		sloAttainment: reg.GaugeVec("opsched_engine_slo_attainment_ratio",
			"Running met/(met+missed) ratio over completed jobs with an objective, by class.", "class"),
	}
	completed := reg.CounterVec("opsched_engine_jobs_completed_total",
		"Jobs that retired every step, by class.", "class")
	eo.completedTrain = completed.With(ClassTraining)
	eo.completedInfer = completed.With(ClassInference)
	eo.queueDepth = reg.Gauge("opsched_engine_queue_depth",
		"Staged (queued, not wave-resident) jobs across the fleet.")
	eo.queuedWork = reg.Gauge("opsched_engine_queued_work_ns",
		"Predicted solo work of the fleet's staged jobs on their nodes, in virtual ns.")
	return eo
}

// complete counts one finished job into the completion and SLO
// instruments; t is the engine's tally, p already folded in.
func (eo *engineObs) complete(p *PlacedJob, t *Tally) {
	if p.Class == ClassInference {
		eo.completedInfer.Inc()
		if p.SLONs > 0 {
			eo.objective(ClassInference, p.SLOMet, t.SLO.Ratio())
		}
		return
	}
	eo.completedTrain.Inc()
	if p.DeadlineNs > 0 {
		eo.objective(ClassTraining, p.DeadlineMet, t.TrainDeadlines.Ratio())
	}
}

// objective counts one job of class against its latency objective and
// publishes the class's attainment ratio.
func (eo *engineObs) objective(class string, met bool, ratio float64) {
	if met {
		eo.sloMet.With(class).Inc()
	} else {
		eo.sloMissed.With(class).Inc()
	}
	eo.sloAttainment.With(class).Set(ratio)
}

// attachObs wires the Observer into the engine (NewEngine tail): bind
// the metric instruments and emit the tracer's track metadata — process
// and per-node thread names, so Perfetto renders the fleet as labeled
// tracks.
func (e *Engine) attachObs(o *obs.Observer) {
	if o == nil {
		return
	}
	e.tr = o.Tracer
	if o.Metrics != nil {
		e.eo = newEngineObs(o.Metrics)
	}
	if e.tr == nil {
		return
	}
	e.tr.ProcessName(obsPidNodes, "nodes")
	e.tr.ProcessName(obsPidJobs, "jobs")
	e.occName = make([]string, len(e.nodes))
	for i, ns := range e.nodes {
		e.tr.ThreadName(obsPidNodes, i, e.pathSeg(i)+" "+ns.rt.Hardware())
		e.occName[i] = fmt.Sprintf("occupancy %s", e.pathSeg(i))
	}
}

// obsQueueGauges publishes the fleet-wide queue aggregates.
func (e *Engine) obsQueueGauges() {
	e.eo.queueDepth.Set(float64(e.queuedJobs))
	e.eo.queuedWork.Set(e.queuedWorkNs)
}

// obsComplete emits one job completion into both sinks.
func (e *Engine) obsComplete(ji int, p *PlacedJob) {
	if e.eo != nil {
		e.eo.complete(p, &e.tally)
	}
	if e.tr != nil {
		e.tr.AsyncEnd(obsPidJobs, int64(ji), p.Name, "job", p.FinishNs,
			obs.A("node", p.Node), obs.A("steps", p.Steps),
			obs.A("preemptions", p.Preemptions))
	}
}

// ObsSample republishes the engine's sampled instruments — the
// cumulative wave-memo counters and the fleet-wide queue gauges — into
// the attached registry. The event-loop hooks keep the flow counters
// current; this covers the values that are snapshots rather than
// events, so a live scrape (the serve loop's /metrics) sees them without
// waiting for Finish. No-op when metrics are not attached; only the
// goroutine driving the engine may call it.
func (e *Engine) ObsSample() {
	if e.eo == nil {
		return
	}
	h, m := e.WaveMemoStats()
	if d := h - e.eo.lastMemoHits; d > 0 {
		e.eo.memoHits.Add(uint64(d))
		e.eo.lastMemoHits = h
	}
	if d := m - e.eo.lastMemoMisses; d > 0 {
		e.eo.memoMisses.Add(uint64(d))
		e.eo.lastMemoMisses = m
	}
	e.obsQueueGauges()
}
