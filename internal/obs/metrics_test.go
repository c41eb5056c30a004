package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_events_total", "events")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("test_events_total", "events"); again != c {
		t.Fatalf("re-registration returned a different counter")
	}

	g := r.Gauge("test_depth", "depth")
	g.Set(3.5)
	g.Add(-1)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}

	h := r.Histogram("test_latency_ns", "latency", []float64{10, 100, 1000})
	for _, v := range []float64{5, 50, 500, 5000} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("histogram count = %d, want 4", h.Count())
	}
	if h.Sum() != 5555 {
		t.Fatalf("histogram sum = %v, want 5555", h.Sum())
	}
}

func TestVecChildrenIdentity(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_fires_total", "fires", "trigger")
	a := v.With("priority")
	b := v.With("deadline")
	if a == b {
		t.Fatalf("distinct label values share a child")
	}
	a.Inc()
	if v.With("priority") != a {
		t.Fatalf("With does not cache children")
	}
	if v.With("priority").Value() != 1 {
		t.Fatalf("cached child lost its count")
	}
}

func TestRegisterMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("test_x_total", "x")
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_conc_total", "c")
	h := r.Histogram("test_conc_ns", "h", ExpBuckets(1, 10, 6))
	g := r.Gauge("test_conc_depth", "g")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Fatalf("concurrent gauge = %v, want 8000", g.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("concurrent histogram count = %d, want 8000", h.Count())
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_last_total", "comes last").Add(7)
	r.CounterVec("aaa_first_total", "comes first", "class").With("training").Add(2)
	r.GaugeVec("mid_depth", "a gauge", "shard").With("0").Set(1.5)
	h := r.Histogram("mid_latency_ns", "a histogram", []float64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)

	text := r.PrometheusText()
	want := strings.Join([]string{
		`# HELP aaa_first_total comes first`,
		`# TYPE aaa_first_total counter`,
		`aaa_first_total{class="training"} 2`,
		`# HELP mid_depth a gauge`,
		`# TYPE mid_depth gauge`,
		`mid_depth{shard="0"} 1.5`,
		`# HELP mid_latency_ns a histogram`,
		`# TYPE mid_latency_ns histogram`,
		`mid_latency_ns_bucket{le="10"} 1`,
		`mid_latency_ns_bucket{le="100"} 2`,
		`mid_latency_ns_bucket{le="+Inf"} 3`,
		`mid_latency_ns_sum 5055`,
		`mid_latency_ns_count 3`,
		`# HELP zzz_last_total comes last`,
		`# TYPE zzz_last_total counter`,
		`zzz_last_total 7`,
	}, "\n") + "\n"
	if text != want {
		t.Fatalf("exposition mismatch:\n got:\n%s\nwant:\n%s", text, want)
	}
	// Determinism: a second render is byte-identical.
	if again := r.PrometheusText(); again != text {
		t.Fatalf("exposition is not deterministic")
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(100, 10, 4)
	want := []float64{100, 1000, 10000, 100000}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
}

// TestHistogramVecExposition: a labeled histogram family keeps one child
// per label tuple, renders each child's buckets with its labels ahead of
// le, sorts children by label values, and spells an infinite sum out.
func TestHistogramVecExposition(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("stage_ns", "per stage", []float64{10}, "stage", "node")
	exec0 := v.With("exec", "0")
	if v.With("exec", "0") != exec0 {
		t.Fatalf("With does not cache children")
	}
	if v.With("exec", "1") == exec0 {
		t.Fatalf("distinct label tuples share a child")
	}
	if again := r.HistogramVec("stage_ns", "per stage", []float64{10}, "stage", "node"); again.With("exec", "0") != exec0 {
		t.Fatalf("re-registration lost the family's children")
	}
	exec0.Observe(5)
	exec0.Observe(math.Inf(1))
	v.With("admit", "0").Observe(20)

	want := strings.Join([]string{
		`# HELP stage_ns per stage`,
		`# TYPE stage_ns histogram`,
		`stage_ns_bucket{stage="admit",node="0",le="10"} 0`,
		`stage_ns_bucket{stage="admit",node="0",le="+Inf"} 1`,
		`stage_ns_sum{stage="admit",node="0"} 20`,
		`stage_ns_count{stage="admit",node="0"} 1`,
		`stage_ns_bucket{stage="exec",node="0",le="10"} 1`,
		`stage_ns_bucket{stage="exec",node="0",le="+Inf"} 2`,
		`stage_ns_sum{stage="exec",node="0"} +Inf`,
		`stage_ns_count{stage="exec",node="0"} 2`,
		`stage_ns_bucket{stage="exec",node="1",le="10"} 0`,
		`stage_ns_bucket{stage="exec",node="1",le="+Inf"} 0`,
		`stage_ns_sum{stage="exec",node="1"} 0`,
		`stage_ns_count{stage="exec",node="1"} 0`,
	}, "\n") + "\n"
	if text := r.PrometheusText(); text != want {
		t.Fatalf("exposition mismatch:\n got:\n%s\nwant:\n%s", text, want)
	}
}
