// Command opsched-serve runs the placement engine as a long-lived
// scheduling service: a streaming admission→execution→metrics pipeline
// fed by a CSV job trace (a file or stdin) and/or ad-hoc HTTP
// submissions, publishing live queue/JCT percentiles while jobs are in
// flight and sealing the full placement report on graceful drain.
//
// Usage:
//
//	opsched-serve -trace jobs.csv                  # replay a trace, unpaced
//	opsched-serve -trace jobs.csv -speed 60        # pace at 60× native rate
//	opsched-serve -trace jobs.csv -compress 24     # squeeze arrival gaps 24×
//	cat jobs.csv | opsched-serve                   # trace over stdin
//	opsched-serve -http :8080                      # live HTTP service
//	opsched-serve -trace jobs.csv -http :8080      # both at once
//
// The trace format is the Philly/Helios-style CSV the tracefile package
// reads: a header row naming at least a model and a submission-time
// column (case-insensitive aliases), then one job per row.
//
// With -http, the service exposes:
//
//	POST /jobs      submit one job: {"model":"resnet-50","name":"j1",
//	                "priority":2,"steps":3,"deadline_ms":500,"weight":1}
//	                (model is required; arrival is the wall-clock instant
//	                of the request). Inference requests add
//	                {"class":"inference","slo_ms":20}: one forward step of
//	                the model's serving graph under a per-request latency
//	                SLO. An invalid spec is rejected synchronously with
//	                400 and never enters the pipeline; 503 means the
//	                pipeline is draining and takes no more work.
//	GET  /snapshot  live metrics as JSON: counts, means, p50/p95/p99
//	                queue and JCT percentiles over completions so far,
//	                plus per-class serving metrics (inference completions,
//	                SLO attainment, p50/p99) once any inference request
//	                has finished
//	POST /drain     close the stream and drain gracefully
//	GET  /metrics   the scheduler's metrics registry in Prometheus text
//	                exposition format: engine counters (admissions, waves,
//	                preemptions, SLO attainment, wave-memo hit rate, queue
//	                depth), pipeline stage latencies and backpressure
//	                gauges, and the serve process's own gauges
//	GET  /healthz   liveness: 200 "ok" while serving, "draining" once the
//	                stream is closing
//	GET  /buildinfo build metadata as JSON (Go version, module version,
//	                VCS revision) from runtime/debug.ReadBuildInfo
//	GET  /debug/pprof/  net/http/pprof profiling handlers (CPU profile,
//	                heap, mutex, goroutine, execution trace) for live
//	                inspection of a running service
//
// Logging goes to stderr through log/slog; -log-level selects the floor
// (debug, info, warn, error).
//
// Shutdown is an ordered drain, never an abort: when the trace ends (and
// no -http keeps the stream open), or on the first SIGINT/SIGTERM, or on
// POST /drain, the END flag enters the pipeline, every in-flight job
// retires, the sealed placement report prints to stdout, and the process
// exits 0. A second signal cancels hard. Live snapshots print to stderr
// every -snap-every completions, so stdout stays a clean artifact.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"opsched"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		slog.Error("fatal", "err", err)
		os.Exit(1)
	}
}

// setupLogging installs the process-wide slog default: text to stderr at
// the requested floor.
func setupLogging(levelName string) error {
	var level slog.Level
	if err := level.UnmarshalText([]byte(levelName)); err != nil {
		return fmt.Errorf("-log-level %q: %w", levelName, err)
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})))
	return nil
}

// run is the whole service behind main: parse flags, assemble the
// pipeline, start the feeders, drain, render. Split out so tests drive it
// end to end with their own argv and stdout.
func run(args []string, stdin *os.File, stdout io.Writer) error {
	fs := flag.NewFlagSet("opsched-serve", flag.ContinueOnError)
	tracePath := fs.String("trace", "", `CSV job trace to replay ("-" or piped stdin also work)`)
	speed := fs.Float64("speed", 0, "trace pacing: 0 replays unpaced, 1 at native arrival rate, 60 at 60× (wall-clock); the virtual-time report is identical whatever the speed")
	compress := fs.Float64("compress", 1, "divide every trace arrival gap: 24 replays a day in one virtual hour")
	unit := fs.Duration("unit", time.Second, "unit of numeric submission-time columns")
	defaultSteps := fs.Int("default-steps", 1, "step count for trace rows without one")
	skipMalformed := fs.Bool("skip-malformed", false, "drop undecodable trace rows instead of failing")
	httpAddr := fs.String("http", "", `serve HTTP job submissions and live snapshots on this address (e.g. ":8080")`)
	nodes := fs.Int("nodes", 2, "CPU (KNL) node count")
	gpus := fs.Int("gpus", 0, "GPU (P100) node count")
	policy := fs.String("policy", "", "placement policy (default spread)")
	arbiter := fs.String("arbiter", "", "per-node cross-job arbiter (default fair)")
	preempt := fs.String("preempt", "", `preemption trigger spec ("all", "priority+deadline", ...; empty = off)`)
	snapEvery := fs.Int("snap-every", 10, "print a live snapshot to stderr every N completions (0 disables)")
	buffer := fs.Int("buffer", 0, "inter-stage channel depth (0 = default)")
	tick := fs.Duration("tick", 500*time.Millisecond, "virtual-clock tick interval in -http mode (retires work between submissions)")
	logLevel := fs.String("log-level", "info", "log floor: debug, info, warn or error")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := setupLogging(*logLevel); err != nil {
		return err
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// The service always carries a metrics registry: the engine and
	// pipeline instrument through it and GET /metrics scrapes it. The
	// placement report is byte-identical with or without it.
	reg := opsched.NewMetricsRegistry()
	cfg := opsched.PipelineConfig{
		Cluster: opsched.Cluster{Nodes: *nodes, GPUs: *gpus},
		Options: opsched.PlaceOptions{Policy: *policy, Arbiter: *arbiter, Preempt: *preempt,
			Obs: &opsched.Observer{Metrics: reg}},
		Buffer: *buffer,
	}
	if *snapEvery > 0 {
		cfg.SnapshotEvery = *snapEvery
		cfg.OnSnapshot = func(s opsched.StreamSnapshot) { slog.Info("snapshot", "live", s.String()) }
	}
	p, err := opsched.NewJobPipeline(ctx, cfg)
	if err != nil {
		return err
	}

	srv := newServer(p, reg)

	// Graceful drain: trace EOF (when nothing else feeds the stream),
	// SIGINT/SIGTERM, or POST /drain — whoever comes first closes once.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		<-sigs
		slog.Info("draining (signal again to abort)")
		srv.drain()
		<-sigs
		slog.Warn("aborting")
		cancel()
	}()

	var httpSrv *http.Server
	if *httpAddr != "" {
		httpSrv = newHTTPServer(*httpAddr, srv.mux())
		go func() {
			slog.Info("listening", "addr", *httpAddr)
			if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				slog.Error("http server failed", "err", err)
				cancel()
			}
		}()
		// Ticks let the live service retire due waves and report
		// completions between submissions. Pure replay never ticks, so a
		// replayed report stays deterministic.
		go func() {
			t := time.NewTicker(*tick)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if srv.tick() != nil {
						return
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	trace, err := traceInput(*tracePath, stdin)
	if err != nil {
		return err
	}
	if trace == nil && *httpAddr == "" {
		return fmt.Errorf("nothing to serve: give -trace, pipe a trace to stdin, or set -http (see -h)")
	}
	if trace != nil {
		go func() {
			defer trace.Close()
			r, err := opsched.NewTraceReader(trace, opsched.TraceOptions{
				TimeUnit: *unit, Compress: *compress,
				DefaultSteps: *defaultSteps, SkipMalformed: *skipMalformed,
			})
			if err != nil {
				slog.Error("trace open failed", "err", err)
				cancel()
				return
			}
			if err := srv.feedTrace(ctx, r, *speed); err != nil {
				slog.Error("trace replay failed", "err", err)
				cancel()
				return
			}
			st := r.Stats()
			slog.Info("trace done", "rows", st.Rows, "jobs", st.Jobs, "skipped", st.Skipped,
				"out_of_order", st.OutOfOrder, "mapped_models", st.MappedModels)
			if *httpAddr == "" {
				srv.drain() // no other feeder: the trace end is the stream end
			}
		}()
	}

	res, err := p.Wait()
	if httpSrv != nil {
		sctx, done := context.WithTimeout(context.Background(), 2*time.Second)
		httpSrv.Shutdown(sctx)
		done()
	}
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, res.Render())
	return nil
}

// HTTP connection timeouts: a client has readHeaderTimeout to deliver its
// request headers, and a keep-alive connection closes after idleTimeout
// without a request, so a client that dribbles bytes or parks an idle
// connection cannot hold it (and its goroutine) forever.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the service's HTTP server with its connection
// timeouts set.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr: addr, Handler: h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// server owns the pipeline handle shared by the feeders and HTTP.
type server struct {
	p     *opsched.JobPipeline
	start time.Time

	// reg is the metrics registry GET /metrics scrapes; the engine and
	// pipeline instruments live in it too. The serve-process gauges are
	// refreshed at scrape time, not on a timer.
	reg        *opsched.MetricsRegistry
	httpReqs   *opsched.MetricsCounterVec
	goroutines *opsched.MetricsGauge
	uptime     *opsched.MetricsGauge

	drainOnce sync.Once
	draining  atomic.Bool
}

func newServer(p *opsched.JobPipeline, reg *opsched.MetricsRegistry) *server {
	return &server{
		p: p, start: time.Now(), reg: reg,
		httpReqs:   reg.CounterVec("opsched_serve_http_requests_total", "HTTP requests served, by endpoint.", "endpoint"),
		goroutines: reg.Gauge("opsched_serve_goroutines", "Goroutines alive at the last /metrics scrape."),
		uptime:     reg.Gauge("opsched_serve_uptime_seconds", "Wall-clock seconds since process start, at the last /metrics scrape."),
	}
}

func (s *server) drain() {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		s.p.Close()
	})
}

// nowNs is the service's virtual clock in live mode: wall time since start.
func (s *server) nowNs() float64 { return float64(time.Since(s.start).Nanoseconds()) }

func (s *server) tick() error { return s.p.Tick(s.nowNs()) }

// mux routes the service's endpoints, plus the net/http/pprof profiling
// handlers under /debug/pprof/: they cost nothing until scraped, and a
// live service's hot paths show only under its own traffic, so the hooks
// stay on permanently.
func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", s.counted("jobs", method(http.MethodPost, s.handleSubmit)))
	mux.HandleFunc("/snapshot", s.counted("snapshot", method(http.MethodGet, s.handleSnapshot)))
	mux.HandleFunc("/drain", s.counted("drain", method(http.MethodPost, s.handleDrain)))
	mux.HandleFunc("/metrics", s.counted("metrics", method(http.MethodGet, s.handleMetrics)))
	mux.HandleFunc("/healthz", s.counted("healthz", method(http.MethodGet, s.handleHealthz)))
	mux.HandleFunc("/buildinfo", s.counted("buildinfo", method(http.MethodGet, s.handleBuildinfo)))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// feedTrace submits the trace rows, pacing arrival gaps by speed (0 or
// +Inf: unpaced). Mirrors pipeline.Replay but leaves the stream open so an
// HTTP feeder can keep submitting after the trace ends.
func (s *server) feedTrace(ctx context.Context, src *opsched.TraceReader, speed float64) error {
	// Match pipeline.Replay's pacing rule exactly: 0 and +Inf both mean
	// unpaced, so the two replay paths report comparable jobs/s.
	pace := speed > 0 && !math.IsInf(speed, 1)
	if pace {
		slog.Info("trace replay paced", "speed", speed)
	} else {
		slog.Info("trace replay unpaced (virtual time only)")
	}
	var epoch float64
	first := true
	start := time.Now()
	for {
		j, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if first {
			first = false
			epoch = j.ArrivalNs
		}
		if pace {
			due := time.Duration((j.ArrivalNs - epoch) / speed)
			if wait := due - time.Since(start); wait > 0 {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
					return ctx.Err()
				}
			}
		}
		if err := s.p.Submit(j); err != nil {
			if s.draining.Load() {
				return nil // drained out from under the trace: not an error
			}
			return err
		}
	}
}

// submitReq is the POST /jobs body.
type submitReq struct {
	Name       string  `json:"name"`
	Model      string  `json:"model"`
	Class      string  `json:"class"` // "training" (default) or "inference"
	Priority   int     `json:"priority"`
	Weight     float64 `json:"weight"`
	Steps      int     `json:"steps"`
	DeadlineMs float64 `json:"deadline_ms"` // relative to submission; 0 = none
	SLOMs      float64 `json:"slo_ms"`      // inference latency SLO; 0 = none
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitReq
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	at := s.nowNs()
	j := opsched.ClusterJob{
		Name: req.Name, Model: req.Model, Class: req.Class, ArrivalNs: at,
		Priority: req.Priority, Weight: req.Weight, Steps: req.Steps,
	}
	if j.Steps <= 0 {
		j.Steps = 1
	}
	if req.DeadlineMs > 0 {
		j.DeadlineNs = at + req.DeadlineMs*1e6
	}
	if req.SLOMs > 0 {
		j.SLONs = req.SLOMs * 1e6
	}
	// Validate synchronously so the client learns why its spec is bad: an
	// asynchronously rejected job would only surface as a count in the
	// snapshot. 503 stays reserved for a pipeline that is draining.
	if err := j.Check(0); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.p.Submit(j); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintln(w, "accepted")
}

func (s *server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.p.Snapshot())
}

func (s *server) handleDrain(w http.ResponseWriter, _ *http.Request) {
	s.drain()
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintln(w, "draining")
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// Process gauges are sampled at scrape time — the scheduler's own
	// instruments update continuously, these two only need to be fresh
	// when somebody looks.
	s.goroutines.Set(float64(runtime.NumGoroutine()))
	s.uptime.Set(time.Since(s.start).Seconds())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		slog.Debug("metrics write aborted", "err", err)
	}
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// buildinfoResp is the GET /buildinfo body.
type buildinfoResp struct {
	GoVersion string            `json:"go_version"`
	Path      string            `json:"path"`
	Module    string            `json:"module"`
	Version   string            `json:"version"`
	Settings  map[string]string `json:"settings,omitempty"`
}

func (s *server) handleBuildinfo(w http.ResponseWriter, _ *http.Request) {
	resp := buildinfoResp{GoVersion: runtime.Version()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		resp.Path = bi.Path
		resp.Module = bi.Main.Path
		resp.Version = bi.Main.Version
		// Surface the reproducibility-relevant settings only; the full list
		// includes every -gcflags style knob and is mostly noise.
		keep := map[string]bool{"vcs": true, "vcs.revision": true, "vcs.time": true, "vcs.modified": true, "GOARCH": true, "GOOS": true}
		for _, kv := range bi.Settings {
			if keep[kv.Key] {
				if resp.Settings == nil {
					resp.Settings = map[string]string{}
				}
				resp.Settings[kv.Key] = kv.Value
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// counted wraps a handler with its per-endpoint request counter.
func (s *server) counted(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	c := s.httpReqs.With(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		c.Inc()
		h(w, r)
	}
}

// method guards a handler behind one HTTP method.
func method(m string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != m {
			w.Header().Set("Allow", m)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

// traceInput opens the trace: a path, "-" for stdin, or piped stdin when
// no path is given. A terminal stdin with no -trace returns nil.
func traceInput(path string, stdin *os.File) (io.ReadCloser, error) {
	switch path {
	case "":
		if fi, err := stdin.Stat(); err == nil && fi.Mode()&os.ModeCharDevice == 0 {
			return stdin, nil
		}
		return nil, nil
	case "-":
		return stdin, nil
	default:
		return os.Open(path)
	}
}
