package pipeline

import (
	"opsched/internal/obs"
)

// pipeObs is the pipeline's pre-bound instrument set, resolved once in
// New against Config.Options.Obs.Metrics. The pipeline's goroutine emits
// through it with single atomics; a nil pipeObs (no metrics attached)
// costs each emission site one nil check. The instruments are wall-clock
// telemetry about the pipeline machinery itself — per-job handling latency
// and input backpressure — and never touch the engine's virtual clock, so
// the sealed report stays byte-identical with and without them.
type pipeObs struct {
	// Wall ns handling one admitted job: check, clamp, placement and the
	// completions it retires, receive excluded.
	executionNs *obs.Histogram
	// Input-channel occupancy sampled at each receive: a persistently
	// full channel is backpressure on the submitters.
	depthSubmit *obs.Gauge

	submitted *obs.Counter
	rejected  *obs.Counter
	clamped   *obs.Counter
	completed *obs.Counter
	ticks     *obs.Counter
}

// newPipeObs binds the pipeline's instruments against the registry.
func newPipeObs(reg *obs.Registry) *pipeObs {
	stage := reg.HistogramVec("opsched_pipeline_stage_ns",
		"Wall-clock nanoseconds handling one admitted job, by pipeline stage.",
		obs.ExpBuckets(100, 10, 8), "stage")
	depth := reg.GaugeVec("opsched_pipeline_channel_depth",
		"Buffered messages in the pipeline's input channel, sampled at receive.", "channel")
	return &pipeObs{
		executionNs: stage.With("execution"),
		depthSubmit: depth.With("submit"),

		submitted: reg.Counter("opsched_pipeline_jobs_submitted_total",
			"Jobs taken off the pipeline's input."),
		rejected: reg.Counter("opsched_pipeline_jobs_rejected_total",
			"Jobs rejected by JobSpec validation."),
		clamped: reg.Counter("opsched_pipeline_arrivals_clamped_total",
			"Out-of-order arrivals clamped forward to the admission clock."),
		completed: reg.Counter("opsched_pipeline_jobs_completed_total",
			"Jobs completed by the engine."),
		ticks: reg.Counter("opsched_pipeline_ticks_total",
			"Virtual-clock ticks fed through the pipeline."),
	}
}
