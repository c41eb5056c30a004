package pipeline

import (
	"opsched/internal/obs"
)

// pipeObs is the pipeline's pre-bound instrument set, resolved once in
// New against Config.Options.Obs.Metrics. Stage goroutines emit through
// it with single atomics; a nil pipeObs (no metrics attached) costs each
// emission site one nil check. The instruments are wall-clock telemetry
// about the pipeline machinery itself — stage handling latency and
// channel backpressure — and never touch the engine's virtual clock, so
// the sealed report stays byte-identical with and without them.
type pipeObs struct {
	// Per-stage handling latency (wall ns per message, receive excluded).
	admissionNs *obs.Histogram
	executionNs *obs.Histogram
	metricsNs   *obs.Histogram

	// Input-channel occupancy sampled by each consuming stage at receive,
	// labelled by the stage that feeds the channel: a persistently full
	// channel is upstream backpressure.
	depthSubmit    *obs.Gauge
	depthAdmission *obs.Gauge
	depthEvents    *obs.Gauge

	submitted *obs.Counter
	rejected  *obs.Counter
	clamped   *obs.Counter
	completed *obs.Counter
	ticks     *obs.Counter
}

// newPipeObs binds the pipeline's instruments against the registry.
func newPipeObs(reg *obs.Registry) *pipeObs {
	stage := reg.HistogramVec("opsched_pipeline_stage_ns",
		"Wall-clock nanoseconds handling one message, by pipeline stage.",
		obs.ExpBuckets(100, 10, 8), "stage")
	depth := reg.GaugeVec("opsched_pipeline_channel_depth",
		"Buffered messages in a stage's input channel, sampled at receive.", "channel")
	return &pipeObs{
		admissionNs: stage.With("admission"),
		executionNs: stage.With("execution"),
		metricsNs:   stage.With("metrics"),

		depthSubmit:    depth.With("submit"),
		depthAdmission: depth.With("admission"),
		depthEvents:    depth.With("events"),

		submitted: reg.Counter("opsched_pipeline_jobs_submitted_total",
			"Jobs submitted into the admission stage."),
		rejected: reg.Counter("opsched_pipeline_jobs_rejected_total",
			"Jobs rejected by admission validation."),
		clamped: reg.Counter("opsched_pipeline_arrivals_clamped_total",
			"Out-of-order arrivals clamped forward to the admission clock."),
		completed: reg.Counter("opsched_pipeline_jobs_completed_total",
			"Jobs sealed by the execution stage."),
		ticks: reg.Counter("opsched_pipeline_ticks_total",
			"Virtual-clock ticks fed through the pipeline."),
	}
}
