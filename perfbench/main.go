// Command perfbench is the repository's end-to-end benchmark. It times one
// workload through the public entry points (pipeline.Replay or
// place.PlaceJobs), checks every result, and prints one JSON line:
//
//	bash perfbench/run.sh --workload replay-uniform --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the line holds the end-to-end metrics; with --trace 1 it
// holds the per-layer ledger of a separate run at Workers=1 that times the
// calls into each layer. See perfbench/README.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"opsched/internal/pipeline"
	"opsched/internal/place"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 15

// wallCap bounds a whole run: one still going then fails, so a regression
// past the overload cliff fails that run instead of stalling every later
// one. It stays under the 180 s a run may take.
const wallCap = 150 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outMu lets only one of main and the wall-time watchdog print the final
// line; it is never released, as the process exits right after.
var outMu sync.Mutex

func emit(r report) {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a report holds only numbers and strings
	}
	outMu.Lock()
	fmt.Println(string(b))
}

func logf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	name := flag.String("workload", "replay-uniform", "workload to run")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 25, "how long the timed runs last")
	trace := flag.Int("trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
	dir := flag.String("dir", ".bench_build", "directory for the files the benchmark writes")
	flag.Parse()

	w, err := findWorkload(*name)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err == nil {
		err = os.MkdirAll(*dir, 0o755)
	}
	if err != nil {
		logf("%v", err)
		os.Exit(2)
	}

	time.AfterFunc(wallCap, func() {
		logf("run exceeded the %v wall-time cap", wallCap)
		emit(report{Attempted: 1, Failed: 1, Metrics: map[string]metric{}})
		os.Exit(1)
	})

	logf("workload=%s seed=%d trace=%d nproc=%d GOMAXPROCS=%d workers=%s go=%s cpu=%q",
		w.name, *seed, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), workersName(w.opts.Workers),
		runtime.Version(), cpuModel())

	var r report
	if *trace == 1 {
		r, err = ledgerRun(w, *seed, *dir)
	} else {
		r, err = endToEnd(w, *seed, *dir, *seconds)
	}
	if err != nil {
		logf("%s: %v", w.name, err)
		r.Correct = false
	}
	if r.Attempted < 1 {
		r.Attempted, r.Failed = 1, 1
	}
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	emit(r)
	if !r.Correct {
		os.Exit(1)
	}
}

func workersName(n int) string {
	if n == 0 {
		return fmt.Sprintf("0 (GOMAXPROCS=%d)", runtime.GOMAXPROCS(0))
	}
	return strconv.Itoa(n)
}

// cpuModel is the host CPU's model name, "" where /proc/cpuinfo is absent.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// runOnce runs every stream of the input through the workload's public
// entry point.
func runOnce(w *workload, in *input, opts place.Options) ([]*place.Result, error) {
	var rs []*place.Result
	for _, s := range in.streams {
		res, err := runStream(w, s, opts)
		if err != nil {
			return nil, err
		}
		rs = append(rs, res)
	}
	return rs, nil
}

func runStream(w *workload, s *stream, opts place.Options) (*place.Result, error) {
	if !w.replay {
		return place.PlaceJobs(s.specs, w.cluster, opts)
	}
	src, closeSrc, err := s.open(nil)
	if err != nil {
		return nil, err
	}
	defer closeSrc()
	return pipeline.Replay(context.Background(), pipeline.Config{Cluster: w.cluster, Options: opts}, src, 0)
}

// tally counts attempted and failed jobs and keeps the first failure.
type tally struct {
	attempted, failed int
	err               error
	first             *sim
}

// record checks one run's per-stream results and their sim against the
// invocation's first.
func (t *tally) record(label string, rs []*place.Result, runErr error, in *input) {
	t.attempted += in.jobs()
	if runErr != nil {
		t.failed += in.jobs()
		t.fail(fmt.Errorf("%s: %w", label, runErr))
		return
	}
	for i, s := range in.streams {
		bad, err := check(rs[i], s)
		t.failed += bad
		if err != nil {
			t.fail(fmt.Errorf("%s, stream %d: %w", label, i+1, err))
		}
	}
	s := summarize(rs)
	if t.first == nil {
		t.first = &s
	} else if s != *t.first {
		t.failed += in.jobs()
		t.fail(fmt.Errorf("%s: simulated outcome %+v differs from the first run's %+v", label, s, *t.first))
	}
}

func (t *tally) fail(err error) {
	if t.err == nil {
		t.err = err
	}
}

func (t *tally) report(m map[string]metric) report {
	return report{Correct: t.err == nil && t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

// endToEnd sets up setupReps times, then replays the input at the default
// worker count until seconds have passed, and reports medians.
func endToEnd(w *workload, seed uint64, dir string, seconds float64) (report, error) {
	var in *input
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		var st setupTimes
		var err error
		if in, st, err = setup(w, seed, dir); err != nil {
			return report{}, err
		}
		setups = append(setups, st.total)
	}

	var t tally
	var rates []float64
	start := now()
	for len(rates) == 0 || secs(now()-start) < seconds {
		runtime.GC()
		t0 := now()
		res, err := runOnce(w, in, w.opts)
		d := now() - t0
		t.record(fmt.Sprintf("run %d", len(rates)+1), res, err, in)
		rates = append(rates, float64(in.jobs())/secs(d))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return report{}, err
	}
	s := t.first
	if s == nil {
		return t.report(nil), t.err
	}
	logf("%d timed runs of %d jobs in %d streams: jobs/s %v; setup s %v; simulated JCT p99 %v ms over %d jobs; SLO and deadline attainment %v; %d preemptions, %d trigger firings",
		len(rates), in.jobs(), len(in.streams), rates, setups, s.jctP99Ms, s.samples, s.sloAttainment, s.preemptions, s.firings)
	return t.report(map[string]metric{
		"jobs_per_s":        {median(rates), "1/s"},
		"setup_s":           {median(setups), "s"},
		"peak_rss_mb":       {rss, "MB"},
		"sim_makespan_s":    {s.makespanS, "s"},
		"sim_jct_mean_ms":   {s.jctMeanMs, "ms"},
		"sim_queue_mean_ms": {s.queueMeanMs, "ms"},
	}), t.err
}

// ledgerRun sets up once, then runs the input four times: once end to end
// at the default worker count with the Go heap counted, and at Workers=1
// once through an untimed engine driver loop, once through the same loop
// with every layer call timed, and once through a hand-driven pipeline.
func ledgerRun(w *workload, seed uint64, dir string) (report, error) {
	in, st, err := setup(w, seed, dir)
	if err != nil {
		return report{}, err
	}
	var t tally
	jobs := float64(in.jobs())

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	res, err := runOnce(w, in, w.opts)
	runtime.ReadMemStats(&m1)
	t.record("end-to-end run", res, err, in)

	serial := w.opts
	serial.Workers = 1
	// direct runs every stream through the engine driver loop, timing each
	// layer when l is not nil, and returns the host time of the runs.
	direct := func(l *ledger) (int64, error) {
		var total int64
		var rs []*place.Result
		for _, s := range in.streams {
			var next *timer
			if l != nil {
				next = &l.next
			}
			src, closeSrc, err := s.open(next)
			if err != nil {
				return 0, err
			}
			runtime.GC()
			t0 := now()
			res, err := drive(w.cluster, serial, src, l)
			total += now() - t0
			closeSrc()
			if err != nil {
				t.record("engine run", nil, err, in)
				return 0, err
			}
			rs = append(rs, res)
		}
		t.record("engine run", rs, nil, in)
		return total, nil
	}
	untraced, err := direct(nil)
	if err != nil {
		return t.report(nil), err
	}
	l := &ledger{pick: timer{keep: true}}
	traced, err := direct(l)
	if err != nil {
		return t.report(nil), err
	}

	pr := &pipeRun{}
	var rs []*place.Result
	for _, s := range in.streams {
		src, closeSrc, err := s.open(nil)
		if err != nil {
			return t.report(nil), err
		}
		runtime.GC()
		res, err := runPipeline(pipeline.Config{Cluster: w.cluster, Options: serial}, src, pr)
		closeSrc()
		if err != nil {
			t.record("pipeline run", nil, err, in)
			return t.report(nil), err
		}
		rs = append(rs, res)
	}
	t.record("pipeline run", rs, nil, in)
	if pr.rejected > 0 {
		t.failed += pr.rejected
		t.fail(fmt.Errorf("pipeline rejected %d jobs", pr.rejected))
	}

	hitRate := 0.0
	if l.hits+l.misses > 0 {
		hitRate = float64(l.hits) / float64(l.hits+l.misses)
	}
	if hitRate < w.minHit || hitRate > w.maxHit {
		t.fail(fmt.Errorf("wave-memo hit rate %.4f (%d of %d) outside [%g, %g]: the workload no longer isolates what it measures",
			hitRate, l.hits, l.hits+l.misses, w.minHit, w.maxHit))
	}
	logf("engine runs at Workers=1: untraced %.3f s, traced %.3f s, layers %.3f s; pipeline %.3f s (close %d ns, drain %.3f s); %d events, %d with a memo miss",
		secs(untraced), secs(traced), secs(l.layersNs()), secs(pr.wall), pr.close, secs(pr.wait), l.event.n+l.sim.n, l.sim.n)

	submit := make([]float64, len(pr.submit))
	for i, d := range pr.submit {
		submit[i] = float64(d)
	}
	var s sim
	if t.first != nil {
		s = *t.first
	}
	return t.report(map[string]metric{
		"tracefile.next_ns":            {l.next.mean(), "ns"},
		"pipeline.submit_wait_ns_p50":  {percentile(submit, 0.50), "ns"},
		"pipeline.submit_wait_ns_p99":  {percentile(submit, 0.99), "ns"},
		"pipeline.overhead_ns_per_job": {float64(pr.wall-untraced) / jobs, "ns"},
		"place.admit_ns":               {l.admit.mean(), "ns"},
		"place.pick_ns":                {l.pick.mean(), "ns"},
		"place.pick_ns_p99":            {percentileNs(l.pick.samples, 0.99), "ns"},
		"place.event_ns":               {l.event.mean(), "ns"},
		"place.wave_sim_ns":            {l.sim.mean(), "ns"},
		"place.events":                 {float64(l.event.n + l.sim.n), "count"},
		"place.wave_sims":              {float64(l.misses), "count"},
		"place.memo_hit_rate":          {hitRate, "ratio"},
		"place.finish_ms":              {l.finish.mean() / 1e6, "ms"},
		"place.jct_p99_ms":             {s.jctP99Ms, "ms"},
		"place.slo_attainment":         {s.sloAttainment, "ratio"},
		"place.preemptions":            {float64(s.preemptions), "count"},
		"preempt.firings":              {float64(s.firings), "count"},
		"nn.build_ms":                  {st.build * 1e3, "ms"},
		"perfmodel.profile_ms":         {st.profile * 1e3, "ms"},
		"go.alloc_bytes_per_job":       {float64(m1.TotalAlloc-m0.TotalAlloc) / jobs, "B"},
		"go.gc_cycles":                 {float64(m1.NumGC - m0.NumGC), "count"},
		"trace.overhead_pct":           {100 * float64(traced-untraced) / float64(untraced), "%"},
		"trace.residual_pct":           {100 * float64(untraced-l.layersNs()) / float64(untraced), "%"},
	}), t.err
}
