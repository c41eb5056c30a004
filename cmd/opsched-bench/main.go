// Command opsched-bench regenerates the paper's evaluation: every table
// and figure, or a selected subset, fanned across a worker pool. Its -jobs
// mode instead co-schedules several training jobs on one machine and
// reports per-job slowdowns and fairness under the cross-job arbiters.
//
// Usage:
//
//	opsched-bench                 # run everything in paper order
//	opsched-bench -exp fig3       # one experiment
//	opsched-bench -exp fig1,fig3  # a subset, comma-separated
//	opsched-bench -parallel 8     # worker count (default GOMAXPROCS)
//	opsched-bench -json           # machine-readable reports with timings
//	opsched-bench -list           # list experiment names
//
//	opsched-bench -jobs resnet,lstm -arbiter fair   # one co-run
//	opsched-bench -jobs "resnet,lstm;inception,dcgan" -arbiter all
//	                              # mix × arbiter grid through the sweep pool
//
//	opsched-bench -cluster 6                        # place a 6-job stream
//	opsched-bench -cluster 8 -policy binpack -nodes 2,4
//	                              # workload × policy × size grid
//	opsched-bench -cluster 12 -nodes 2 -gpus 2      # heterogeneous fleet:
//	                              # 2 KNL nodes + 2 P100 nodes
//	opsched-bench -cluster 12 -nodes 2 -gpus 2 -steps 4 -preempt off,on
//	                              # multi-step jobs, run-to-completion vs
//	                              # checkpoint/restart preemption
//	opsched-bench -cluster 12 -steps 4 -preempt on -trigger priority+deadline
//	                              # arm a specific trigger subset
//	opsched-bench -cluster 8 -nodes 2 -gpus 2 -steps 6 -inference 64 -slo 40 \
//	              -preempt off,slo-at-risk
//	                              # mixed tenancy: a bursty inference stream
//	                              # (64 requests, 40 ms SLO) rides the
//	                              # training workload; compare SLO attainment
//	                              # with and without serving-aware preemption
//	opsched-bench -cluster 8 -gpus 2 -inference 64 -share mps
//	                              # GPU nodes share via MPS-style spatial
//	                              # partitioning instead of CUDA streams
//	opsched-bench -cluster 12 -metrics-out metrics.prom
//	                              # dump the engine's metrics registry in
//	                              # Prometheus text format after the sweep
//	opsched-bench -cluster 12 -nodes 2 -steps 4 -preempt on -trace-out run.trace.json
//	                              # export the scheduler's virtual-time
//	                              # timeline as Chrome trace-event JSON
//	                              # (load in Perfetto); single-cell grids
//	                              # only — a multi-cell sweep interleaves
//	                              # timelines nondeterministically
//	opsched-bench -cpuprofile cpu.pb.gz -memprofile mem.pb.gz -mutexprofile mutex.pb.gz
//	                              # write pprof profiles alongside any mode
//
// Reports print to stdout in request order and are byte-identical whatever
// -parallel is; per-experiment wall-clock timings go to stderr (or into the
// -json payload), so piping stdout to a file yields a stable artifact.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"opsched"
)

type jsonReport struct {
	Name      string  `json:"name"`
	Report    string  `json:"report"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

type jsonOutput struct {
	Machine     string       `json:"machine"`
	Parallel    int          `json:"parallel"`
	TotalMs     float64      `json:"total_ms"`
	CacheHits   int          `json:"profile_cache_hits"`
	CacheMisses int          `json:"profile_cache_misses"`
	Experiments []jsonReport `json:"experiments"`
}

type jsonCoJob struct {
	Name     string  `json:"name"`
	SoloMs   float64 `json:"solo_ms"`
	CorunMs  float64 `json:"corun_ms"`
	Slowdown float64 `json:"slowdown"`
}

type jsonJobCell struct {
	Mix       string      `json:"mix"`
	Arbiter   string      `json:"arbiter"`
	Report    string      `json:"report"`
	TotalMs   float64     `json:"total_ms"`
	Fairness  float64     `json:"fairness"`
	Jobs      []jsonCoJob `json:"jobs"`
	ElapsedMs float64     `json:"elapsed_ms"`
}

type jsonJobsOutput struct {
	Machine     string        `json:"machine"`
	Parallel    int           `json:"parallel"`
	TotalMs     float64       `json:"total_ms"`
	CacheHits   int           `json:"profile_cache_hits"`
	CacheMisses int           `json:"profile_cache_misses"`
	Cells       []jsonJobCell `json:"cells"`
}

type jsonPlacedJob struct {
	Name         string  `json:"name"`
	Model        string  `json:"model"`
	Node         int     `json:"node"`
	Hw           string  `json:"hw"`
	Wave         int     `json:"wave"`
	Steps        int     `json:"steps"`
	StepsDone    int     `json:"steps_done"`
	QueueMs      float64 `json:"queue_ms"`
	CorunMs      float64 `json:"corun_ms"`
	JctMs        float64 `json:"jct_ms"`
	Slowdown     float64 `json:"slowdown"`
	Preemptions  int     `json:"preemptions"`
	Path         string  `json:"path,omitempty"`
	DisruptionMs float64 `json:"disruption_ms"`
	// Serving-class fields; omitted for training jobs.
	Class   string `json:"class,omitempty"`
	Batched int    `json:"batched,omitempty"`
	SloMet  bool   `json:"slo_met,omitempty"`
}

type jsonClusterCell struct {
	Workload       string  `json:"workload"`
	Policy         string  `json:"policy"`
	Nodes          int     `json:"nodes"`
	Gpus           int     `json:"gpus"`
	Preempt        string  `json:"preempt"`
	Fleet          string  `json:"fleet"`
	Report         string  `json:"report"`
	MakespanMs     float64 `json:"makespan_ms"`
	MeanJctMs      float64 `json:"mean_jct_ms"`
	MeanQueueMs    float64 `json:"mean_queue_ms"`
	P50QueueMs     float64 `json:"p50_queue_ms"`
	P95QueueMs     float64 `json:"p95_queue_ms"`
	P99QueueMs     float64 `json:"p99_queue_ms"`
	Fairness       float64 `json:"fairness"`
	DeadlinesMet   int     `json:"deadlines_met"`
	DeadlinesTotal int     `json:"deadlines_total"`
	Preemptions    int     `json:"preemptions"`
	Migrations     int     `json:"migrations"`
	TriggerFirings int     `json:"trigger_firings"`
	DisruptionMs   float64 `json:"disruption_ms"`
	// Per-class serving metrics; all omitted in a training-only cell.
	InferenceJobs int     `json:"inference_jobs,omitempty"`
	SloMet        int     `json:"slo_met,omitempty"`
	SloTotal      int     `json:"slo_total,omitempty"`
	SloAttainment float64 `json:"slo_attainment,omitempty"`
	GoodputPerSec float64 `json:"goodput_per_sec,omitempty"`
	InferP50JctMs float64 `json:"infer_p50_jct_ms,omitempty"`
	InferP99JctMs float64 `json:"infer_p99_jct_ms,omitempty"`

	Jobs      []jsonPlacedJob `json:"jobs"`
	ElapsedMs float64         `json:"elapsed_ms"`
}

// jsonClusterOutput carries no global machine field: fleets vary per cell
// (see each cell's fleet description).
type jsonClusterOutput struct {
	Parallel    int               `json:"parallel"`
	TotalMs     float64           `json:"total_ms"`
	CacheHits   int               `json:"profile_cache_hits"`
	CacheMisses int               `json:"profile_cache_misses"`
	Cells       []jsonClusterCell `json:"cells"`
}

func main() {
	exp := flag.String("exp", "", "experiments to run, comma-separated (empty = all); see -list")
	list := flag.Bool("list", false, "list experiment names and exit")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "max concurrent experiments (<=0 means GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "emit reports as JSON with per-experiment timings")
	jobs := flag.String("jobs", "", `co-schedule mode: model mixes as comma-separated names, semicolon-separated mixes (e.g. "resnet,lstm;inception,dcgan")`)
	arbiter := flag.String("arbiter", "all", `cross-job arbiters for -jobs: comma-separated from fair, priority, srwf; "all" means every policy. -cluster mode uses one arbiter per node ("all" means fair)`)
	clusterN := flag.Int("cluster", 0, "cluster mode: place a synthetic workload of this many jobs onto a cluster (0 = off)")
	policy := flag.String("policy", "all", `placement policies for -cluster: comma-separated from binpack, spread, model-aware; "all" means every policy`)
	nodesSpec := flag.String("nodes", "1,2,4", "CPU node counts for -cluster, comma-separated")
	gpusSpec := flag.String("gpus", "0", "GPU node counts for -cluster, comma-separated, crossed with -nodes (0 = CPU-only)")
	models := flag.String("models", "lstm,dcgan", "models the -cluster synthetic workload cycles through, comma-separated")
	seed := flag.Uint64("seed", 1, "seed of the -cluster synthetic workload")
	gapMs := flag.Float64("gap", 2, "mean inter-arrival gap of the -cluster synthetic workload, in ms")
	steps := flag.Int("steps", 1, "max training steps per -cluster synthetic job (steps cycle 1..N deterministically; 1 = single-step jobs)")
	preemptSpec := flag.String("preempt", "off", `preemption axis for -cluster, comma-separated: "off" (run-to-completion), "on" (the -trigger set), or explicit trigger specs like priority+deadline`)
	triggerSpec := flag.String("trigger", "all", `trigger set "-preempt on" arms: "all", "none", or a "+"-separated subset of priority, deadline, slo-at-risk, load`)
	inferenceN := flag.Int("inference", 0, "merge a bursty open-loop inference stream of this many requests into the -cluster workload (0 = training only)")
	infGapMs := flag.Float64("inf-gap", 0.1, "mean calm-phase inter-arrival gap of the -inference stream, in ms (burst phases run 10x hotter)")
	sloMs := flag.Float64("slo", 0, "per-request latency SLO of the -inference stream, in ms (0 = 50 calm gaps)")
	shareMode := flag.String("share", "", `GPU sharing mode for -cluster fleets: "streams" (default) or "mps"`)
	metricsOut := flag.String("metrics-out", "", "write the -cluster sweep's metrics registry to this file in Prometheus text format")
	traceOut := flag.String("trace-out", "", "write the -cluster run's virtual-time scheduler timeline to this file as Chrome trace-event JSON (single-cell grids only)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex-contention profile to this file on exit")
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuprofile, *memprofile, *mutexprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "opsched-bench: %v\n", err)
		os.Exit(1)
	}
	defer stopProfiles()

	if *list {
		fmt.Println(strings.Join(opsched.Experiments(), "\n"))
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *clusterN < 0 {
		fmt.Fprintf(os.Stderr, "opsched-bench: -cluster must be positive, got %d\n", *clusterN)
		os.Exit(1)
	}
	if *clusterN > 0 {
		inf := inferenceSpec{n: *inferenceN, gapMs: *infGapMs, sloMs: *sloMs}
		out := obsOut{metricsPath: *metricsOut, tracePath: *traceOut}
		runCluster(ctx, *clusterN, *policy, *nodesSpec, *gpusSpec, *models, *arbiter,
			*seed, *gapMs, *steps, *preemptSpec, *triggerSpec, inf, *shareMode,
			*parallel, *jsonOut, out)
		return
	}
	if *metricsOut != "" || *traceOut != "" {
		fmt.Fprintln(os.Stderr, "opsched-bench: -metrics-out/-trace-out require -cluster mode")
		os.Exit(1)
	}

	if *jobs != "" {
		runJobs(ctx, *jobs, *arbiter, *parallel, *jsonOut)
		return
	}

	var names []string
	if *exp != "" {
		for _, n := range strings.Split(*exp, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}

	m := opsched.NewKNL()
	start := time.Now()
	reports, err := opsched.RunExperiments(ctx, names, m, *parallel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "opsched-bench: %v\n", err)
		os.Exit(1)
	}
	total := time.Since(start)
	hits, misses := opsched.ProfileCacheStats()

	if *jsonOut {
		out := jsonOutput{
			Machine:     m.String(),
			Parallel:    *parallel,
			TotalMs:     float64(total.Microseconds()) / 1e3,
			CacheHits:   hits,
			CacheMisses: misses,
		}
		for _, r := range reports {
			out.Experiments = append(out.Experiments, jsonReport{
				Name: r.Name, Report: r.Report,
				ElapsedMs: float64(r.Elapsed.Microseconds()) / 1e3,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "opsched-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("machine: %v\n\n", m)
	for _, r := range reports {
		fmt.Printf("=== %s ===\n%s\n", r.Name, r.Report)
		fmt.Fprintf(os.Stderr, "opsched-bench: %-7s %.2fs\n", r.Name, r.Elapsed.Seconds())
	}
	fmt.Fprintf(os.Stderr, "opsched-bench: total %.2fs, parallel=%d, profile cache %d hits / %d misses\n",
		total.Seconds(), *parallel, hits, misses)
}

// parseMixes turns "resnet,lstm;inception,dcgan" into job mixes with
// canonical model names, so mix labels and reports are spelling-independent.
func parseMixes(spec string) ([]opsched.JobMix, error) {
	var mixes []opsched.JobMix
	for _, part := range strings.Split(spec, ";") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		var models []string
		for _, name := range strings.Split(part, ",") {
			if name = strings.TrimSpace(name); name == "" {
				continue
			}
			canonical, err := opsched.ResolveModel(name)
			if err != nil {
				return nil, err
			}
			models = append(models, canonical)
		}
		if len(models) == 0 {
			continue
		}
		mixes = append(mixes, opsched.JobMix{Models: models})
	}
	if len(mixes) == 0 {
		return nil, fmt.Errorf("-jobs %q names no models", spec)
	}
	return mixes, nil
}

// parseArbiters turns "fair,priority" (or "all") into a policy list.
func parseArbiters(spec string) ([]string, error) {
	if strings.TrimSpace(spec) == "all" || strings.TrimSpace(spec) == "" {
		return opsched.Arbiters(), nil
	}
	var arbs []string
	for _, a := range strings.Split(spec, ",") {
		if a = strings.TrimSpace(a); a != "" {
			arbs = append(arbs, a)
		}
	}
	return arbs, nil
}

// runJobs is the -jobs mode: a job-mix × arbiter grid through the sweep
// pool, with the same determinism contract as the experiment mode — stdout
// is byte-identical at any -parallel, timings go to stderr or the JSON
// payload.
func runJobs(ctx context.Context, jobsSpec, arbiterSpec string, parallel int, jsonOut bool) {
	mixes, err := parseMixes(jobsSpec)
	if err == nil {
		var arbs []string
		if arbs, err = parseArbiters(arbiterSpec); err == nil {
			grid := opsched.JobSweepGrid{Mixes: mixes, Arbiters: arbs}
			start := time.Now()
			var cells []opsched.JobSweepCell
			if cells, err = opsched.RunJobSweep(ctx, grid, parallel); err == nil {
				emitJobCells(cells, time.Since(start), parallel, jsonOut)
				return
			}
		}
	}
	fmt.Fprintf(os.Stderr, "opsched-bench: %v\n", err)
	os.Exit(1)
}

// inferenceSpec carries the -inference/-inf-gap/-slo flag triple into
// runCluster.
type inferenceSpec struct {
	n     int
	gapMs float64
	sloMs float64
}

// obsOut carries the -metrics-out/-trace-out flag pair into runCluster.
type obsOut struct {
	metricsPath string
	tracePath   string
}

// runCluster is the -cluster mode: a synthetic workload placed under every
// requested policy at every requested node mix (CPU counts × GPU counts)
// and preemption configuration, through the sweep pool. A non-zero
// -inference count merges a bursty serving stream into the workload; the
// mixed stream sweeps the same grid. Same determinism contract as the
// other modes — stdout is byte-identical at any -parallel, timings go to
// stderr or the JSON payload.
func runCluster(ctx context.Context, n int, policySpec, nodesSpec, gpusSpec, modelsSpec, arbiterSpec string, seed uint64, gapMs float64, steps int, preemptSpec, triggerSpec string, inf inferenceSpec, shareMode string, parallel int, jsonOut bool, out obsOut) {
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "opsched-bench: %v\n", err)
		os.Exit(1)
	}

	var modelNames []string
	for _, name := range strings.Split(modelsSpec, ",") {
		if name = strings.TrimSpace(name); name != "" {
			modelNames = append(modelNames, name)
		}
	}
	if len(modelNames) == 0 {
		fail(fmt.Errorf("-models %q names no models", modelsSpec))
	}
	workload, err := opsched.SyntheticStepsWorkload(n, seed, modelNames, gapMs*1e6, steps)
	if err != nil {
		fail(err)
	}
	wlName := fmt.Sprintf("synthetic%d", n)
	if inf.n > 0 {
		// The serving tenant draws from an independent seed stream so
		// adding it never perturbs the training arrivals.
		requests, err := opsched.SyntheticInferenceWorkload(inf.n, seed, modelNames, inf.gapMs*1e6, inf.sloMs*1e6)
		if err != nil {
			fail(err)
		}
		workload = workload.Merge(requests)
		wlName = fmt.Sprintf("%s+inf%d", wlName, inf.n)
	}

	var preempts []string
	for _, p := range strings.Split(preemptSpec, ",") {
		switch p = strings.TrimSpace(p); p {
		case "":
		case "on":
			preempts = append(preempts, strings.TrimSpace(triggerSpec))
		default:
			preempts = append(preempts, p)
		}
	}
	if len(preempts) == 0 {
		fail(fmt.Errorf("-preempt %q names no configurations", preemptSpec))
	}

	policies := opsched.PlacementPolicies()
	if s := strings.TrimSpace(policySpec); s != "" && s != "all" {
		policies = policies[:0]
		for _, p := range strings.Split(s, ",") {
			if p = strings.TrimSpace(p); p != "" {
				policies = append(policies, p)
			}
		}
	}

	parseCounts := func(flagName, spec string) []int {
		var counts []int
		for _, s := range strings.Split(spec, ",") {
			if s = strings.TrimSpace(s); s == "" {
				continue
			}
			c, err := strconv.Atoi(s)
			if err != nil {
				fail(fmt.Errorf("%s %q: %w", flagName, spec, err))
			}
			counts = append(counts, c)
		}
		if len(counts) == 0 {
			fail(fmt.Errorf("%s %q names no node counts", flagName, spec))
		}
		return counts
	}
	sizes := parseCounts("-nodes", nodesSpec)
	gpus := parseCounts("-gpus", gpusSpec)

	arb := strings.TrimSpace(arbiterSpec)
	if arb == "all" {
		arb = "fair"
	}

	grid := opsched.ClusterSweepGrid{
		Workloads: []opsched.NamedWorkload{{Name: wlName, Jobs: workload}},
		Policies:  policies,
		Sizes:     sizes,
		GPUs:      gpus,
		Preempts:  preempts,
		Arbiter:   arb,
	}
	if s := strings.TrimSpace(shareMode); s != "" && s != opsched.SharingStreams {
		// A non-default sharing mode needs its own device descriptor; the
		// grid's nil default stays the stock streams-mode P100.
		dev := opsched.NewP100()
		dev.Sharing = s
		if err := dev.Validate(); err != nil {
			fail(err)
		}
		grid.GPU = dev
	}

	// Observability outputs: a metrics registry aggregates safely across a
	// whole sweep (atomic instruments), but the tracer's timeline is only
	// deterministic when exactly one cell emits into it.
	if out.metricsPath != "" || out.tracePath != "" {
		grid.Obs = &opsched.Observer{}
		if out.metricsPath != "" {
			grid.Obs.Metrics = opsched.NewMetricsRegistry()
		}
		if out.tracePath != "" {
			if cells := grid.Cells(); len(cells) != 1 {
				fail(fmt.Errorf("-trace-out needs a single-cell grid, got %d cells; pin -policy, -nodes, -gpus and -preempt to one value each", len(cells)))
			}
			grid.Obs.Tracer = opsched.NewSchedTracer()
		}
	}

	start := time.Now()
	cells, err := opsched.RunClusterSweep(ctx, grid, parallel)
	if err != nil {
		fail(err)
	}
	emitClusterCells(cells, time.Since(start), parallel, jsonOut)

	if out.metricsPath != "" {
		if err := writeFileWith(out.metricsPath, grid.Obs.Metrics.WritePrometheus); err != nil {
			fail(fmt.Errorf("-metrics-out: %w", err))
		}
	}
	if out.tracePath != "" {
		if err := writeFileWith(out.tracePath, grid.Obs.Tracer.WriteChromeTrace); err != nil {
			fail(fmt.Errorf("-trace-out: %w", err))
		}
	}
}

// writeFileWith streams a render function into a freshly created file.
func writeFileWith(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func emitClusterCells(cells []opsched.ClusterSweepCell, total time.Duration, parallel int, jsonOut bool) {
	hits, misses := opsched.ProfileCacheStats()
	if jsonOut {
		out := jsonClusterOutput{
			Parallel:    parallel,
			TotalMs:     float64(total.Microseconds()) / 1e3,
			CacheHits:   hits,
			CacheMisses: misses,
		}
		for _, c := range cells {
			jc := jsonClusterCell{
				Workload: c.Workload, Policy: c.Policy, Nodes: c.Nodes,
				Gpus: c.GPUs, Preempt: c.Result.Preempt,
				Fleet:          c.Result.Fleet,
				Report:         c.Result.Render(),
				MakespanMs:     c.Result.MakespanNs / 1e6,
				MeanJctMs:      c.Result.MeanJCTNs / 1e6,
				MeanQueueMs:    c.Result.MeanQueueNs / 1e6,
				P50QueueMs:     c.Result.QueuePercentileNs(0.50) / 1e6,
				P95QueueMs:     c.Result.QueuePercentileNs(0.95) / 1e6,
				P99QueueMs:     c.Result.QueuePercentileNs(0.99) / 1e6,
				Fairness:       c.Result.FairnessIndex,
				DeadlinesMet:   c.Result.DeadlinesMet,
				DeadlinesTotal: c.Result.DeadlinesTotal,
				Preemptions:    c.Result.Preemptions,
				Migrations:     c.Result.Migrations,
				TriggerFirings: c.Result.TriggerFirings,
				DisruptionMs:   c.Result.DisruptionNs / 1e6,
				ElapsedMs:      float64(c.Elapsed.Microseconds()) / 1e3,
			}
			if c.Result.InferenceJobs > 0 {
				jc.InferenceJobs = c.Result.InferenceJobs
				jc.SloMet, jc.SloTotal = c.Result.SLOMet, c.Result.SLOTotal
				jc.SloAttainment = c.Result.SLOAttainment
				jc.GoodputPerSec = c.Result.GoodputPerSec
				jc.InferP50JctMs = c.Result.InferP50JCTNs / 1e6
				jc.InferP99JctMs = c.Result.InferP99JCTNs / 1e6
			}
			for _, j := range c.Result.Jobs {
				pj := jsonPlacedJob{
					Name: j.Name, Model: j.Model, Node: j.Node, Hw: j.Kind, Wave: j.Wave,
					Steps: j.Steps, StepsDone: j.StepsDone,
					QueueMs: j.QueueNs / 1e6, CorunMs: j.CoRunNs / 1e6,
					JctMs: j.JCTNs() / 1e6, Slowdown: j.Slowdown,
					Preemptions: j.Preemptions, Path: j.Path,
					DisruptionMs: j.DisruptionNs / 1e6,
				}
				if j.Class == opsched.ClassInference {
					pj.Class = j.Class
					pj.Batched = j.Batched
					pj.SloMet = j.SLOMet
				}
				jc.Jobs = append(jc.Jobs, pj)
			}
			out.Cells = append(out.Cells, jc)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "opsched-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	// No global machine header: fleets vary per cell (a -gpus grid mixes
	// KNL and P100 nodes), and every rendered report carries its own
	// fleet= description.
	for _, c := range cells {
		label := fmt.Sprintf("%s / %s / n=%d", c.Workload, c.Policy, c.Nodes)
		if c.GPUs > 0 {
			label = fmt.Sprintf("%s+%dg", label, c.GPUs)
		}
		if c.Preempt != "" && c.Preempt != "off" {
			label = fmt.Sprintf("%s / p=%s", label, c.Preempt)
		}
		fmt.Printf("=== %s ===\n%s\n", label, c.Result.Render())
		fmt.Fprintf(os.Stderr, "opsched-bench: %-35s %.2fs\n", label, c.Elapsed.Seconds())
	}
	fmt.Fprintf(os.Stderr, "opsched-bench: total %.2fs, parallel=%d, profile cache %d hits / %d misses\n",
		total.Seconds(), parallel, hits, misses)
}

// startProfiles arms the requested pprof collectors and returns the
// teardown that flushes them; profiles are written only on a clean exit
// (error paths os.Exit before the defer runs, which is fine — a failed run
// has nothing worth profiling).
func startProfiles(cpu, mem, mutex string) (stop func(), err error) {
	var stops []func()
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if mutex != "" {
		runtime.SetMutexProfileFraction(1)
		stops = append(stops, func() {
			writeProfile("mutex", mutex)
		})
	}
	if mem != "" {
		stops = append(stops, func() {
			runtime.GC() // settle live objects so the heap profile is sharp
			writeProfile("heap", mem)
		})
	}
	return func() {
		for _, s := range stops {
			s()
		}
	}, nil
}

// writeProfile flushes one named runtime profile, reporting (not failing)
// on error — the benchmark results already printed.
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "opsched-bench: %s profile: %v\n", name, err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "opsched-bench: %s profile: %v\n", name, err)
	}
}

func emitJobCells(cells []opsched.JobSweepCell, total time.Duration, parallel int, jsonOut bool) {
	hits, misses := opsched.ProfileCacheStats()
	if jsonOut {
		out := jsonJobsOutput{
			Machine:     opsched.NewKNL().String(),
			Parallel:    parallel,
			TotalMs:     float64(total.Microseconds()) / 1e3,
			CacheHits:   hits,
			CacheMisses: misses,
		}
		for _, c := range cells {
			jc := jsonJobCell{
				Mix: c.Mix, Arbiter: c.Arbiter, Report: c.Result.Render(),
				TotalMs:   c.Result.TotalNs / 1e6,
				Fairness:  c.Result.FairnessIndex,
				ElapsedMs: float64(c.Elapsed.Microseconds()) / 1e3,
			}
			for _, j := range c.Result.Jobs {
				jc.Jobs = append(jc.Jobs, jsonCoJob{
					Name: j.Name, SoloMs: j.SoloNs / 1e6,
					CorunMs: j.MakespanNs / 1e6, Slowdown: j.Slowdown,
				})
			}
			out.Cells = append(out.Cells, jc)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "opsched-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("machine: %v\n\n", opsched.NewKNL())
	for _, c := range cells {
		fmt.Printf("=== %s / %s ===\n%s\n", c.Mix, c.Arbiter, c.Result.Render())
		fmt.Fprintf(os.Stderr, "opsched-bench: %-30s %.2fs\n", c.Mix+"/"+c.Arbiter, c.Elapsed.Seconds())
	}
	fmt.Fprintf(os.Stderr, "opsched-bench: total %.2fs, parallel=%d, profile cache %d hits / %d misses\n",
		total.Seconds(), parallel, hits, misses)
}
