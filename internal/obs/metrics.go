// Package obs is the scheduler's observability layer: a metrics registry
// (counters, gauges, histograms — Prometheus text-format exposition) and
// a virtual-time tracer (Chrome trace-event JSON, Perfetto-loadable). It
// is deliberately generic — obs knows
// nothing about placement engines or pipelines; those layers own their
// instrument names and emission points — and deliberately passive: an
// instrument only ever records, so attaching an Observer can never
// change a scheduling decision. The repo's determinism gates hold that
// line: reports stay byte-identical with observability on, off, and at
// any worker/shard count.
//
// The hot-path contract mirrors the wave memo's: instruments are
// pre-bound once (a registry lookup per name, not per event) and then
// updated with single atomic operations, so an enabled registry costs a
// few uncontended atomics per event — and a disabled one costs exactly
// one nil check and zero allocations, because every caller guards its
// emission with `if obs != nil`.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// metricType discriminates a family's exposition shape.
type metricType uint8

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds metric families by name. Registration (name → family)
// is the only mutex-guarded path and runs once per instrument, when a
// layer binds its instruments; updates on bound instruments are lock-free
// atomics. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// family is one named metric family: its type, help text, label keys,
// and the children (one instrument per distinct label-value tuple).
type family struct {
	name      string
	help      string
	typ       metricType
	labelKeys []string
	bounds    []float64 // histogram upper bounds, ascending; +Inf implicit

	mu       sync.RWMutex
	children map[string]*child
}

// child is one instrument plus the label values that address it.
type child struct {
	labelVals []string
	c         *Counter
	g         *Gauge
	h         *Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// register resolves (or creates) the family for name, enforcing that
// re-registration keeps the same type and label keys — a mismatch is a
// programmer error and panics, like prometheus/client_golang's MustRegister.
func (r *Registry) register(name, help string, typ metricType, labels []string, bounds []float64) *family {
	if name == "" {
		panic("obs: metric name must be non-empty")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, typ, f.typ))
		}
		if len(f.labelKeys) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with labels %v, was %v", name, labels, f.labelKeys))
		}
		for i := range labels {
			if f.labelKeys[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %q re-registered with labels %v, was %v", name, labels, f.labelKeys))
			}
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labelKeys: append([]string(nil), labels...),
		bounds:    append([]float64(nil), bounds...),
		children:  make(map[string]*child),
	}
	r.fams[name] = f
	return f
}

// childKey joins label values into the family's child-map key; 0xff
// cannot appear in valid UTF-8 label values, so the join is unambiguous.
func childKey(vals []string) string {
	switch len(vals) {
	case 0:
		return ""
	case 1:
		return vals[0]
	}
	n := len(vals) - 1
	for _, v := range vals {
		n += len(v)
	}
	b := make([]byte, 0, n)
	for i, v := range vals {
		if i > 0 {
			b = append(b, 0xff)
		}
		b = append(b, v...)
	}
	return string(b)
}

// with resolves (or creates) the family's child for the label values.
func (f *family) with(vals ...string) *child {
	if len(vals) != len(f.labelKeys) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labelKeys), len(vals)))
	}
	key := childKey(vals)
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c = &child{labelVals: append([]string(nil), vals...)}
	switch f.typ {
	case typeCounter:
		c.c = &Counter{}
	case typeGauge:
		c.g = &Gauge{}
	case typeHistogram:
		c.h = newHistogram(f.bounds)
	}
	f.children[key] = c
	return c
}

// Counter registers (or finds) an unlabeled monotonically increasing
// counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, typeCounter, nil, nil).with().c
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, typeGauge, nil, nil).with().g
}

// Histogram registers (or finds) an unlabeled histogram with the given
// ascending upper bucket bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.register(name, help, typeHistogram, nil, bounds).with().h
}

// CounterVec registers (or finds) a counter family with label keys.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, typeCounter, labels, nil)}
}

// GaugeVec registers (or finds) a gauge family with label keys.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, typeGauge, labels, nil)}
}

// HistogramVec registers (or finds) a histogram family with label keys.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, typeHistogram, labels, bounds)}
}

// CounterVec / GaugeVec / HistogramVec address one labeled child per
// distinct label-value tuple. With caches children in the family map;
// hot paths should bind the child once and keep it.
type CounterVec struct{ f *family }

// With returns the counter for the label values, creating it on first use.
func (v *CounterVec) With(vals ...string) *Counter { return v.f.with(vals...).c }

type GaugeVec struct{ f *family }

// With returns the gauge for the label values, creating it on first use.
func (v *GaugeVec) With(vals ...string) *Gauge { return v.f.with(vals...).g }

type HistogramVec struct{ f *family }

// With returns the histogram for the label values, creating it on first use.
func (v *HistogramVec) With(vals ...string) *Histogram { return v.f.with(vals...).h }

// Counter is a monotonically increasing event count. All methods are
// safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value is the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value (float64, stored as bits).
// All methods are safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add folds a delta into the gauge (CAS loop).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value is the gauge's current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution: counts per upper bound plus
// a running sum, all atomics — Observe never locks.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	sum    Gauge           // atomic float64 accumulator
	n      atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram bounds must ascend, got %v", bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Binary search the first bound >= v; the histograms here are narrow
	// (tens of buckets), so this is a handful of comparisons.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count is the number of samples observed; Sum their total.
func (h *Histogram) Count() uint64 { return h.n.Load() }
func (h *Histogram) Sum() float64  { return h.sum.Value() }

// ExpBuckets builds n exponentially spaced upper bounds starting at
// start and growing by factor — the usual shape for latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: ExpBuckets(%v, %v, %d) invalid", start, factor, n))
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// families snapshots every registered family, sorted by name — the
// exposition order, stable so scrapes and dumps are deterministic given
// deterministic instrument values.
func (r *Registry) families() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(a, b int) bool { return fams[a].name < fams[b].name })
	return fams
}

// snapshotChildren copies a family's children sorted by label values.
func (f *family) snapshotChildren() []*child {
	f.mu.RLock()
	kids := make([]*child, 0, len(f.children))
	for _, c := range f.children {
		kids = append(kids, c)
	}
	f.mu.RUnlock()
	sort.Slice(kids, func(a, b int) bool {
		va, vb := kids[a].labelVals, kids[b].labelVals
		for i := range va {
			if va[i] != vb[i] {
				return va[i] < vb[i]
			}
		}
		return false
	})
	return kids
}
