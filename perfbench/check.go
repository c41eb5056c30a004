package main

import (
	"fmt"

	"opsched/internal/place"
)

// sim is the simulated-time outcome of one run. The simulator is
// deterministic, so every run of one input must produce the same sim bit
// for bit; only a change to scheduling decisions may move it.
type sim struct {
	makespanS     float64
	jctMeanMs     float64
	jctP99Ms      float64
	queueMeanMs   float64
	sloAttainment float64
	samples       int // jobs behind the JCT percentile
	preemptions   int
	firings       int
}

// summarize reads the sim values off the sealed results of one input's
// streams, pooling their jobs; the makespan is the streams' sum. SLO
// attainment counts every job with a latency objective: an inference
// request against its SLO and a training job against its deadline.
func summarize(rs []*place.Result) sim {
	var s sim
	var jct []float64
	var jctSum, queueSum float64
	met, total := 0, 0
	for _, r := range rs {
		for _, j := range r.Jobs {
			jct = append(jct, j.JCTNs())
			jctSum += j.JCTNs()
			queueSum += j.QueueNs
		}
		s.makespanS += r.MakespanNs / 1e9
		s.preemptions += r.Preemptions
		s.firings += r.TriggerFirings
		met += r.SLOMet + r.DeadlinesMet
		total += r.SLOTotal + r.DeadlinesTotal
	}
	s.samples = len(jct)
	if s.samples > 0 {
		s.jctMeanMs = jctSum / float64(s.samples) / 1e6
		s.queueMeanMs = queueSum / float64(s.samples) / 1e6
		s.jctP99Ms = percentile(jct, 0.99) / 1e6
	}
	if total > 0 {
		s.sloAttainment = float64(met) / float64(total)
	}
	return s
}

// check verifies a stream's result: every job completed exactly once with
// all its steps, no co-run sped a job up, and Jain fairness lies in (0,1].
// It returns how many jobs failed and the first problem found.
func check(r *place.Result, in *stream) (failed int, err error) {
	if r == nil {
		return len(in.names), fmt.Errorf("no result")
	}
	want := make(map[string]bool, len(in.names))
	for _, n := range in.names {
		want[n] = true
	}
	fail := func(format string, args ...interface{}) {
		failed++
		if err == nil {
			err = fmt.Errorf(format, args...)
		}
	}
	for _, j := range r.Jobs {
		switch {
		case !want[j.Name]:
			fail("job %q completed twice or was never submitted", j.Name)
			continue
		case j.Steps < 1 || j.StepsDone != j.Steps:
			fail("job %q retired %d of %d steps", j.Name, j.StepsDone, j.Steps)
		case !(j.CoRunSlowdown >= 1):
			fail("job %q has co-run slowdown %v < 1", j.Name, j.CoRunSlowdown)
		case !(j.FinishNs >= j.ArrivalNs):
			fail("job %q finished at %v before its arrival %v", j.Name, j.FinishNs, j.ArrivalNs)
		}
		delete(want, j.Name)
	}
	if len(want) > 0 {
		failed += len(want)
		if err == nil {
			err = fmt.Errorf("%d of %d jobs never completed", len(want), len(in.names))
		}
	}
	if !(r.FairnessIndex > 0 && r.FairnessIndex <= 1) {
		if err == nil {
			err = fmt.Errorf("Jain fairness %v outside (0,1]", r.FairnessIndex)
		}
		failed = len(in.names)
	}
	return failed, err
}
