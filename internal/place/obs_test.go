package place

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"opsched/internal/obs"
)

// obsScenario is a small preemptive mixed-tenant run: two nodes, training
// jobs with deadlines pinned down by a long wave, a high-priority arrival
// that cuts it, and a burst of SLO-carrying inference requests — every
// event class the tracer records (waves, triggers, preemptions,
// migrations, dynamic batches) in a few dozen events.
func obsScenario() (Workload, Cluster, Options) {
	w := Workload{
		{Name: "train-a", Model: "lstm", ArrivalNs: 0, Priority: 0, Steps: 4},
		{Name: "train-b", Model: "dcgan", ArrivalNs: 1e6, Priority: 1, Steps: 3, DeadlineNs: 500e6},
		{Name: "urgent", Model: "lstm", ArrivalNs: 40e6, Priority: 5, Steps: 1, DeadlineNs: 150e6},
		{Name: "inf-0", Model: "dcgan", ArrivalNs: 45e6, Priority: 6, Class: ClassInference, Steps: 1, SLONs: 60e6},
		{Name: "inf-1", Model: "dcgan", ArrivalNs: 46e6, Priority: 6, Class: ClassInference, Steps: 1, SLONs: 60e6},
		{Name: "train-c", Model: "resnet-50", ArrivalNs: 50e6, Priority: 0, Steps: 2},
	}
	c := Cluster{Nodes: 2}
	opts := Options{
		Policy: "model-aware", Arbiter: "priority",
		Preempt: "priority+slo-at-risk",
	}
	return w, c, opts
}

// TestObsByteIdentity: the core invariant — attaching observability must
// not change one byte of the rendered report.
func TestObsByteIdentity(t *testing.T) {
	w, c, opts := obsScenario()
	plain, err := PlaceJobs(w, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.MetricsDump != "" {
		t.Fatalf("obs-off run carries a metrics dump")
	}
	opts.Obs = &obs.Observer{Metrics: obs.NewRegistry(), Tracer: obs.NewTracer()}
	res, err := PlaceJobs(w, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Render(), plain.Render(); got != want {
		t.Fatalf("obs-on report differs from obs-off:\n--- obs on\n%s\n--- obs off\n%s", got, want)
	}
	if res.MetricsDump == "" {
		t.Fatalf("obs-on run has no metrics dump")
	}
	if opts.Obs.Tracer.Len() == 0 {
		t.Fatalf("tracer recorded nothing")
	}
}

// TestObsMetricsMatchResult: the registry's flow counters must agree with
// the sealed Result — the instruments are a live view of the same
// accounting, not a second opinion.
func TestObsMetricsMatchResult(t *testing.T) {
	w, c, opts := obsScenario()
	reg := obs.NewRegistry()
	opts.Obs = &obs.Observer{Metrics: reg}
	res, err := PlaceJobs(w, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Preemptions == 0 {
		t.Fatalf("scenario lost its preemptions — rebuild it")
	}
	count := func(name string) uint64 { return reg.Counter(name, "").Value() }
	if got := count("opsched_engine_jobs_admitted_total"); got != uint64(len(w)) {
		t.Errorf("admitted counter = %d, want %d", got, len(w))
	}
	completed := reg.CounterVec("opsched_engine_jobs_completed_total", "", "class")
	if got := completed.With(ClassTraining).Value() + completed.With(ClassInference).Value(); got != uint64(len(w)) {
		t.Errorf("completed counters = %d, want %d", got, len(w))
	}
	if got := completed.With(ClassInference).Value(); got != uint64(res.InferenceJobs) {
		t.Errorf("inference completed = %d, want %d", got, res.InferenceJobs)
	}
	if got := count("opsched_engine_preemptions_total"); got != uint64(res.Preemptions) {
		t.Errorf("preemptions counter = %d, result says %d", got, res.Preemptions)
	}
	if got := count("opsched_engine_migrations_total"); got != uint64(res.Migrations) {
		t.Errorf("migrations counter = %d, result says %d", got, res.Migrations)
	}
	firings := reg.CounterVec("opsched_engine_trigger_firings_total", "", "trigger")
	if got := firings.With("priority").Value() + firings.With("slo-at-risk").Value(); got != uint64(res.TriggerFirings) {
		t.Errorf("trigger firing counters = %d, result says %d", got, res.TriggerFirings)
	}
	slo := reg.CounterVec("opsched_engine_slo_met_total", "", "class")
	sloMiss := reg.CounterVec("opsched_engine_slo_missed_total", "", "class")
	if got := slo.With(ClassInference).Value(); got != uint64(res.SLOMet) {
		t.Errorf("slo met counter = %d, result says %d", got, res.SLOMet)
	}
	if got := slo.With(ClassInference).Value() + sloMiss.With(ClassInference).Value(); got != uint64(res.SLOTotal) {
		t.Errorf("slo total counters = %d, result says %d", got, res.SLOTotal)
	}
	hits, misses := 0, 0
	{
		// The memo counters are republished at seal; compare against a
		// fresh engine's cumulative stats indirectly via the dump instead
		// of re-running — they must at least cover every wave round.
		hits = int(count("opsched_engine_wave_memo_hits_total"))
		misses = int(count("opsched_engine_wave_memo_misses_total"))
	}
	rounds := int(count("opsched_engine_wave_rounds_total"))
	if rounds == 0 || hits+misses == 0 {
		t.Errorf("rounds=%d memo hits+misses=%d — sampled instruments never published", rounds, hits+misses)
	}
	if res.MetricsDump == "" {
		t.Fatalf("no metrics dump attached")
	}
	if want := fmt.Sprintf("opsched_engine_preemptions_total %d", res.Preemptions); !bytes.Contains([]byte(res.MetricsDump), []byte(want)) {
		t.Errorf("metrics dump missing %q:\n%s", want, res.MetricsDump)
	}
}

// chromeTraceFile mirrors the object-form export for validity checks.
type chromeTraceFile struct {
	TraceEvents []chromeTraceEvent `json:"traceEvents"`
}

type chromeTraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat"`
	Ts   *float64       `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  *int           `json:"pid"`
	Tid  *int           `json:"tid"`
	ID   int64          `json:"id"`
	Args map[string]any `json:"args"`
}

// TestChromeTraceExport: the golden-file gate for the trace exporter — a
// fixed preemptive mixed-tenant run must export byte-identically to the
// committed testdata/golden_trace.json (regenerate with
// OPSCHED_UPDATE_GOLDEN=1 go test ./internal/place/ -run ChromeTrace),
// the export must be schema-valid trace-event JSON, and the span/flow
// structure must pair up: every async begin ends, every preempt starts a
// migration flow that a relaunch binds.
func TestChromeTraceExport(t *testing.T) {
	w, c, opts := obsScenario()
	tr := obs.NewTracer()
	opts.Obs = &obs.Observer{Tracer: tr}
	res, err := PlaceJobs(w, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "golden_trace.json")
	if os.Getenv("OPSCHED_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("no golden trace (run with OPSCHED_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace export differs from golden %s (regenerate with OPSCHED_UPDATE_GOLDEN=1 if the change is intended)", golden)
	}

	// Schema validity: it parses, and every event carries the mandatory
	// fields with a known phase.
	var ct chromeTraceFile
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatalf("export has no events")
	}
	validPh := map[string]bool{"X": true, "i": true, "C": true, "b": true, "n": true, "e": true, "s": true, "f": true, "M": true}
	for i, ev := range ct.TraceEvents {
		if ev.Name == "" || ev.Ph == "" || ev.Ts == nil || ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event %d missing mandatory fields: %+v", i, ev)
		}
		if !validPh[ev.Ph] {
			t.Fatalf("event %d has unknown phase %q", i, ev.Ph)
		}
		if ev.Ph == "X" && ev.Dur < 0 {
			t.Fatalf("event %d has negative duration", i)
		}
	}

	// Pairing: async job spans open and close exactly once per job; every
	// preempt instant starts a flow; every flow start has exactly one
	// matching end (the relaunch that resumed the job).
	begins, ends, preempts := map[string]int{}, map[string]int{}, 0
	flowS, flowF := map[int64]int{}, map[int64]int{}
	for _, ev := range ct.TraceEvents {
		switch {
		case ev.Ph == "b" && ev.Cat == "job":
			begins[ev.Name]++
		case ev.Ph == "e" && ev.Cat == "job":
			ends[ev.Name]++
		case ev.Ph == "n" && ev.Name == "preempt":
			preempts++
		case ev.Ph == "s" && ev.Cat == "preempt":
			flowS[ev.ID]++
		case ev.Ph == "f" && ev.Cat == "preempt":
			flowF[ev.ID]++
		}
	}
	for _, j := range w {
		if begins[j.Name] != 1 || ends[j.Name] != 1 {
			t.Errorf("job %s: %d begin / %d end spans, want exactly 1/1", j.Name, begins[j.Name], ends[j.Name])
		}
	}
	if preempts != res.Preemptions {
		t.Errorf("%d preempt instants, result says %d preemptions", preempts, res.Preemptions)
	}
	if len(flowS) != res.Preemptions {
		t.Errorf("%d migration flows started, want one per preemption (%d)", len(flowS), res.Preemptions)
	}
	for id, n := range flowS {
		if n != 1 || flowF[id] != 1 {
			t.Errorf("flow %d: %d starts / %d ends, want exactly 1/1", id, n, flowF[id])
		}
	}
	for id := range flowF {
		if flowS[id] == 0 {
			t.Errorf("flow %d ends without a start", id)
		}
	}
}

// TestObsRunToRunDeterminism: two obs-on runs of the same scenario export
// byte-identical Chrome traces and byte-identical metrics dumps. Every
// metric is schedule-derived except the wall-clock placement-scan
// histogram, the only family stripped before comparing.
func TestObsRunToRunDeterminism(t *testing.T) {
	w, c, opts := obsScenario()
	run := func() (trace []byte, metrics string) {
		o := opts
		tr := obs.NewTracer()
		o.Obs = &obs.Observer{Metrics: obs.NewRegistry(), Tracer: tr}
		res, err := PlaceJobs(w, c, o)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		var kept []string
		for _, line := range strings.Split(res.MetricsDump, "\n") {
			if !strings.Contains(line, "opsched_engine_placement_scan_ns") {
				kept = append(kept, line)
			}
		}
		return buf.Bytes(), strings.Join(kept, "\n")
	}
	traceA, metricsA := run()
	traceB, metricsB := run()
	if !bytes.Equal(traceA, traceB) {
		t.Errorf("trace export differs between two runs")
	}
	if metricsA != metricsB {
		t.Errorf("metrics dump differs between two runs:\n--- run A\n%s\n--- run B\n%s", metricsA, metricsB)
	}
	for _, family := range []string{"opsched_engine_wave_memo_hits_total", "opsched_engine_queue_depth"} {
		if !strings.Contains(metricsA, family) {
			t.Errorf("metrics dump lacks %s", family)
		}
	}
}
