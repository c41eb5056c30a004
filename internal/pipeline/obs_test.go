package pipeline

import (
	"context"
	"math"
	"strings"
	"testing"

	"opsched/internal/gpu"
	"opsched/internal/obs"
	"opsched/internal/place"
)

// TestPipelineMetricsOn runs a stream with a metrics registry attached:
// every pipeline instrument records what the stream did, and the sealed
// report stays byte-identical to the same stream with metrics off.
func TestPipelineMetricsOn(t *testing.T) {
	subs := []place.JobSpec{
		{Model: "lstm", ArrivalNs: 0},
		{Model: "dcgan", ArrivalNs: 2e6},
		{Model: "no-such-model", ArrivalNs: 3e6}, // rejected
		{Model: "lstm", ArrivalNs: 1e6},          // clamped to 2e6
		{Model: "dcgan", ArrivalNs: 9e6},
	}
	run := func(o place.Options) *place.Result {
		t.Helper()
		p, err := New(context.Background(), Config{Cluster: place.Cluster{Nodes: 1, GPUs: 1}, Options: o})
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range subs {
			if err := p.Submit(j); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Tick(5e6); err != nil {
			t.Fatal(err)
		}
		p.Close()
		res, err := p.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	reg := obs.NewRegistry()
	on := run(place.Options{Obs: &obs.Observer{Metrics: reg}})
	off := run(place.Options{})
	if on.Render() != off.Render() {
		t.Errorf("metrics changed the report:\n%s\nvs\n%s", on.Render(), off.Render())
	}

	for name, want := range map[string]uint64{
		"opsched_pipeline_jobs_submitted_total":   5,
		"opsched_pipeline_jobs_rejected_total":    1,
		"opsched_pipeline_arrivals_clamped_total": 1,
		"opsched_pipeline_jobs_completed_total":   4,
		"opsched_pipeline_ticks_total":            1,
	} {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	stage := reg.HistogramVec("opsched_pipeline_stage_ns", "", nil, "stage")
	if got := stage.With("execution").Count(); got != 4 {
		t.Errorf("execution handled %d jobs, want 4 (one per admitted job)", got)
	}
	text := reg.PrometheusText()
	for _, series := range []string{
		`opsched_pipeline_stage_ns_bucket{stage="execution",le="+Inf"} 4`,
		`opsched_pipeline_channel_depth{channel="submit"}`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("exposition lacks %q", series)
		}
	}
	for _, gone := range []string{
		`stage="placement"`, `channel="placement"`,
		`stage="admission"`, `stage="metrics"`, `channel="admission"`, `channel="events"`,
	} {
		if strings.Contains(text, gone) {
			t.Errorf("exposition still carries the retired %s series", gone)
		}
	}
}

// TestPipelineFeedsScanMetric: execution places every admitted job through
// the engine's own placement call, so a metrics-on stream records one
// placement-scan latency per admitted job — none for a rejected one.
func TestPipelineFeedsScanMetric(t *testing.T) {
	reg := obs.NewRegistry()
	p, err := New(context.Background(), Config{
		Cluster: place.Cluster{Nodes: 1, GPUs: 2},
		Options: place.Options{Policy: "model-aware", Obs: &obs.Observer{Metrics: reg}},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := place.MustSynthetic(9, 4, []string{"lstm", "dcgan"}, 1e6)
	w = append(w, place.JobSpec{Model: "no-such-model"}) // rejected by admission
	for _, j := range w {
		if err := p.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	res, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	got := reg.Histogram("opsched_engine_placement_scan_ns", "", nil).Count()
	if len(res.Jobs) != 9 || got != uint64(len(res.Jobs)) {
		t.Errorf("scan histogram counted %d placements for %d admitted jobs, want 9 and 9", got, len(res.Jobs))
	}
}

// TestStageErrorFailsPipeline: when an engine call fails, the pipeline
// records the error, stops its goroutine and returns the error from Wait
// instead of a report. The failure here is real: a device whose kernel
// launch costs +Inf prices the job's solo time at +Inf, and the GPU wave
// simulator refuses non-finite work.
func TestStageErrorFailsPipeline(t *testing.T) {
	dev := gpu.NewP100()
	dev.KernelLaunchNs = math.Inf(1)
	p, err := New(context.Background(), Config{Cluster: place.Cluster{NodeList: []place.Node{{GPU: dev}}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(place.JobSpec{Model: "lstm"}); err != nil {
		t.Fatal(err)
	}
	p.Close()
	res, err := p.Wait()
	if err == nil || !strings.Contains(err.Error(), "non-finite solo time") {
		t.Fatalf("Wait = (%v, %v), want the wave simulation error", res, err)
	}
	select {
	case <-p.done:
	default:
		t.Error("pipeline goroutine still running after a failed Wait")
	}
}
