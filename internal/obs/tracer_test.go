package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// chromeTrace mirrors the object-form trace file for validity checks.
type chromeTrace struct {
	TraceEvents []map[string]any `json:"traceEvents"`
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatalf("nil tracer reports enabled")
	}
	tr.Complete(1, 0, "x", "c", 0, 1)
	tr.Instant(1, 0, "x", "c", 0)
	tr.AsyncBegin(2, 1, "x", "c", 0)
	tr.AsyncEnd(2, 1, "x", "c", 0)
	tr.FlowStart(1, 0, 1, "x", "c", 0)
	tr.FlowEnd(1, 0, 1, "x", "c", 0)
	tr.ProcessName(1, "nodes")
	tr.Reset()
	if tr.Len() != 0 || tr.Events() != nil || tr.NextID() != 0 {
		t.Fatalf("nil tracer recorded state")
	}
	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatalf("nil WriteChromeTrace: %v", err)
	}
	var ct chromeTrace
	if err := json.Unmarshal([]byte(b.String()), &ct); err != nil {
		t.Fatalf("nil trace is invalid JSON: %v", err)
	}
	if len(ct.TraceEvents) != 0 {
		t.Fatalf("nil trace has events")
	}
}

func TestChromeTraceExport(t *testing.T) {
	tr := NewTracer()
	tr.ProcessName(1, "nodes")
	tr.ThreadName(1, 0, "n0/cpu")
	tr.Complete(1, 0, "wave 0", "wave", 1000, 2500, A("jobs", 3))
	tr.Instant(1, 0, "priority", "trigger", 1500, A("job", "j1"))
	tr.AsyncBegin(2, 7, "j7", "job", 0, A("model", "mlp"))
	tr.AsyncInstant(2, 7, "place", "job", 10, A("node", 0))
	id := tr.NextID()
	tr.FlowStart(1, 0, id, "migrate", "preempt", 3500)
	tr.FlowEnd(1, 1, id, "migrate", "preempt", 4000)
	tr.AsyncEnd(2, 7, "j7", "job", 5000, A("node", 1))

	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var ct chromeTrace
	if err := json.Unmarshal([]byte(b.String()), &ct); err != nil {
		t.Fatalf("invalid trace JSON: %v\n%s", err, b.String())
	}
	if len(ct.TraceEvents) != tr.Len() {
		t.Fatalf("exported %d events, recorded %d", len(ct.TraceEvents), tr.Len())
	}
	// Every event carries the mandatory fields; ts is in microseconds.
	for _, ev := range ct.TraceEvents {
		for _, k := range []string{"name", "ph", "pid", "tid", "ts"} {
			if _, ok := ev[k]; !ok {
				t.Fatalf("event %v missing %q", ev, k)
			}
		}
	}
	wave := ct.TraceEvents[2]
	if wave["ts"].(float64) != 1.0 || wave["dur"].(float64) != 2.5 {
		t.Fatalf("ns->us conversion wrong: ts=%v dur=%v", wave["ts"], wave["dur"])
	}
	if args, ok := wave["args"].(map[string]any); !ok || args["jobs"].(float64) != 3 {
		t.Fatalf("wave args lost: %v", wave["args"])
	}

	// Determinism: an identical emission sequence exports byte-identically.
	tr2 := NewTracer()
	tr2.ProcessName(1, "nodes")
	tr2.ThreadName(1, 0, "n0/cpu")
	tr2.Complete(1, 0, "wave 0", "wave", 1000, 2500, A("jobs", 3))
	tr2.Instant(1, 0, "priority", "trigger", 1500, A("job", "j1"))
	tr2.AsyncBegin(2, 7, "j7", "job", 0, A("model", "mlp"))
	tr2.AsyncInstant(2, 7, "place", "job", 10, A("node", 0))
	id2 := tr2.NextID()
	tr2.FlowStart(1, 0, id2, "migrate", "preempt", 3500)
	tr2.FlowEnd(1, 1, id2, "migrate", "preempt", 4000)
	tr2.AsyncEnd(2, 7, "j7", "job", 5000, A("node", 1))
	var b2 strings.Builder
	if err := tr2.WriteChromeTrace(&b2); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if b.String() != b2.String() {
		t.Fatalf("trace export is not deterministic")
	}
}

func TestTracerReset(t *testing.T) {
	tr := NewTracer()
	tr.Instant(1, 0, "x", "c", 0)
	id := tr.NextID()
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatalf("reset kept %d events", tr.Len())
	}
	if next := tr.NextID(); next <= id {
		t.Fatalf("flow ids regressed across reset: %d then %d", id, next)
	}
}

func TestObserverNilAccessors(t *testing.T) {
	var o *Observer
	if o.MetricsOrNil() != nil || o.TracerOrNil() != nil {
		t.Fatalf("nil observer returned non-nil sinks")
	}
	o = &Observer{Metrics: NewRegistry()}
	if o.MetricsOrNil() == nil || o.TracerOrNil() != nil {
		t.Fatalf("observer accessors wrong")
	}
}

// TestCounterEventExport: a counter sample records as a "C" event in the
// counter category, keeps its series values as args, and Events returns a
// copy the caller may modify without touching the log.
func TestCounterEventExport(t *testing.T) {
	tr := NewTracer()
	tr.CounterEvent(1, 3, "n3 occupancy", 2000, A("jobs", 2), A("streams", 4))
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Phase != "C" || evs[0].Cat != "counter" || evs[0].Tid != 3 {
		t.Fatalf("counter sample recorded as %+v", evs)
	}
	evs[0].Name = "changed"
	if tr.Events()[0].Name != "n3 occupancy" {
		t.Fatalf("Events exposed the tracer's own log")
	}

	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var ct chromeTrace
	if err := json.Unmarshal([]byte(b.String()), &ct); err != nil {
		t.Fatalf("invalid trace JSON: %v\n%s", err, b.String())
	}
	ev := ct.TraceEvents[0]
	args, _ := ev["args"].(map[string]any)
	if ev["ph"] != "C" || ev["ts"].(float64) != 2.0 || args["jobs"].(float64) != 2 || args["streams"].(float64) != 4 {
		t.Fatalf("counter sample exported as %v", ev)
	}
}
