package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"opsched/internal/graph"
	"opsched/internal/hw"
	"opsched/internal/nn"
	"opsched/internal/perfmodel"
	"opsched/internal/pipeline"
	"opsched/internal/place"
	"opsched/internal/tracefile"
)

// profileInterval is core.Config's default hill-climb interval: the key the
// engine's CPU runtimes look profiles up under in the process-wide cache.
const profileInterval = 4

// maxInferBatch is the engine's dynamic-batch cap: a serving wave slot runs
// a forward graph at any batch size from 1 to this.
const maxInferBatch = 8

// workload is one benchmark input shape and the public entry point it runs
// through: pipeline.Replay when replay is set, place.PlaceJobs otherwise.
type workload struct {
	name    string
	cluster place.Cluster
	opts    place.Options
	replay  bool
	// build generates the seeded input; dir receives any files it writes.
	build func(seed uint64, dir string) (*input, error)
	// The traced run fails when the wave-memo hit rate leaves [minHit, maxHit].
	minHit, maxHit float64
}

var workloads = []workload{
	{
		name:    "replay-uniform",
		cluster: place.Cluster{Nodes: 4},
		replay:  true,
		build:   buildUniform,
		minHit:  0.99, maxHit: 1,
	},
	{
		name:    "replay-diverse",
		cluster: place.Cluster{Nodes: 2, GPUs: 2},
		opts:    place.Options{Policy: "model-aware", Preempt: "all"},
		replay:  true,
		build:   buildDiverse,
		minHit:  0, maxHit: 0.8,
	},
	{
		name:    "place-fleet",
		cluster: place.Cluster{GPUs: 10_000},
		opts:    place.Options{Policy: "model-aware"},
		build:   buildFleet,
		minHit:  0, maxHit: 1,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// input is one generated workload instance, ready to replay any number of
// times: one or more independent job streams, each run through a fresh
// engine, back to back.
type input struct {
	streams []*stream
	// models are the trained models; served ones also run forward graphs
	// at every dynamic batch size.
	models, served []string
}

// stream is one job stream. Training jobs come either from specs or, when
// tracePath is set, from a CSV trace; extra is an arrival-ordered stream
// merged with it.
type stream struct {
	specs     place.Workload
	tracePath string
	extra     place.Workload
	// names lists every job name a run must complete, each exactly once.
	names []string
}

// graphs builds every model graph the input's jobs are priced on.
func (in *input) graphs() []*graph.Graph {
	var gs []*graph.Graph
	for _, m := range in.models {
		gs = append(gs, nn.MustBuild(m).Graph)
	}
	for _, m := range in.served {
		for b := 1; b <= maxInferBatch; b++ {
			gs = append(gs, nn.MustBuildInference(m, b).Graph)
		}
	}
	return gs
}

func (in *input) jobs() int {
	n := 0
	for _, s := range in.streams {
		n += len(s.names)
	}
	return n
}

// open returns a fresh source over the whole stream. traceNext, when not
// nil, is charged the host time of every tracefile.Reader.Next call. The
// returned close function releases the trace file.
func (s *stream) open(traceNext *timer) (pipeline.Source, func(), error) {
	if s.tracePath == "" {
		return &sliceSource{w: s.specs}, func() {}, nil
	}
	f, err := os.Open(s.tracePath)
	if err != nil {
		return nil, nil, err
	}
	r, err := tracefile.NewReader(bufio.NewReader(f), tracefile.Options{})
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	var trace pipeline.Source = r
	if traceNext != nil {
		trace = &timedSource{src: r, t: traceNext}
	}
	return &mergeSource{a: trace, b: &sliceSource{w: s.extra}}, func() { f.Close() }, nil
}

// sliceSource streams an in-memory workload.
type sliceSource struct {
	w place.Workload
	i int
}

func (s *sliceSource) Next() (place.JobSpec, error) {
	if s.i >= len(s.w) {
		return place.JobSpec{}, io.EOF
	}
	s.i++
	return s.w[s.i-1], nil
}

// timedSource charges each Next call to a timer.
type timedSource struct {
	src pipeline.Source
	t   *timer
}

func (s *timedSource) Next() (place.JobSpec, error) {
	t0 := now()
	j, err := s.src.Next()
	s.t.add(now() - t0)
	return j, err
}

// mergeSource interleaves two arrival-ordered sources into one, a's job
// first on equal arrivals — the order place.Workload.Merge produces.
type mergeSource struct {
	a, b       pipeline.Source
	ha, hb     place.JobSpec
	okA, okB   bool // ha, hb hold a job not yet returned
	eofA, eofB bool
}

func (m *mergeSource) pull(src pipeline.Source, head *place.JobSpec, ok, eof *bool) error {
	if *ok || *eof {
		return nil
	}
	j, err := src.Next()
	if err == io.EOF {
		*eof = true
		return nil
	}
	if err != nil {
		return err
	}
	*head, *ok = j, true
	return nil
}

func (m *mergeSource) Next() (place.JobSpec, error) {
	if err := m.pull(m.a, &m.ha, &m.okA, &m.eofA); err != nil {
		return place.JobSpec{}, err
	}
	if err := m.pull(m.b, &m.hb, &m.okB, &m.eofB); err != nil {
		return place.JobSpec{}, err
	}
	switch {
	case m.okA && (!m.okB || m.ha.ArrivalNs <= m.hb.ArrivalNs):
		m.okA = false
		return m.ha, nil
	case m.okB:
		m.okB = false
		return m.hb, nil
	}
	return place.JobSpec{}, io.EOF
}

func specNames(w place.Workload) []string {
	names := make([]string, len(w))
	for i, j := range w {
		names[i] = j.Name
	}
	return names
}

// oneStepJobs generates n one-step jobs with no priority or deadline, each
// an LSTM or DCGAN job drawn from the seed; gap draws the time from one
// arrival to the next.
func oneStepJobs(n int, seed uint64, gap func(*rand.Rand) float64) *input {
	models := []string{nn.LSTM, nn.DCGAN}
	rng := rand.New(rand.NewSource(int64(seed)))
	w := make(place.Workload, n)
	arrival := 0.0
	for i := range w {
		m := models[rng.Intn(len(models))]
		w[i] = place.JobSpec{Name: m + "#" + strconv.Itoa(i), Model: m, ArrivalNs: arrival, Steps: 1}
		arrival += gap(rng)
	}
	return &input{streams: []*stream{{specs: w, names: specNames(w)}}, models: models}
}

// buildUniform spaces jobs exactly 10 ms apart: on 4 KNL nodes every job
// then runs alone in its own wave.
func buildUniform(seed uint64, _ string) (*input, error) {
	return oneStepJobs(200_000, seed, func(*rand.Rand) float64 { return 10e6 }), nil
}

// buildFleet draws gaps uniform in [0.05, 0.15) ms: jobs never queue on
// the 10k-node fleet, so placement, not execution, sets the cost.
func buildFleet(seed uint64, _ string) (*input, error) {
	return oneStepJobs(100_000, seed, func(r *rand.Rand) float64 { return 1e5 * (0.5 + r.Float64()) }), nil
}

// Replay-diverse shape: diverseTraces independent traces, each of
// traceJobs training jobs traceGapNs apart with 1..traceMaxSteps steps plus
// inferJobs inference requests inferGapNs apart under an inferSLONs
// objective. One trace's replay cost swings by about a fifth from seed to
// seed, as preemption cascades build different gangs; the sum over many
// traces does not. A training gap near 50 ms overloads the fleet (the run
// no longer finishes in minutes), so keep clear of it.
const (
	diverseTraces = 16
	traceJobs     = 250
	traceGapNs    = 100e6
	traceMaxSteps = 8
	inferJobs     = 125
	inferGapNs    = 200e6
	inferSLONs    = 50e6
)

func buildDiverse(seed uint64, dir string) (*input, error) {
	models := nn.Names()
	in := &input{models: models, served: models}
	for k := 0; k < diverseTraces; k++ {
		s, err := diverseTrace(seed*diverseTraces+uint64(k), filepath.Join(dir, fmt.Sprintf("replay-diverse-%02d.csv", k)))
		if err != nil {
			return nil, err
		}
		in.streams = append(in.streams, s)
	}
	return in, nil
}

// diverseTrace writes one seeded training trace to path, checks that it
// reads back as written, and pairs it with a seeded inference stream.
func diverseTrace(seed uint64, path string) (*stream, error) {
	models := nn.Names()
	train, err := place.SyntheticSteps(traceJobs, seed, models, traceGapNs, traceMaxSteps)
	if err != nil {
		return nil, err
	}
	infer, err := place.SyntheticInference(inferJobs, seed, models, inferGapNs, inferSLONs)
	if err != nil {
		return nil, err
	}
	if err := writeTrace(path, train); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := tracefile.NewReader(bufio.NewReader(f), tracefile.Options{})
	if err != nil {
		return nil, err
	}
	back, err := r.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(back) != len(train) {
		return nil, fmt.Errorf("trace %s read back %d of %d jobs", path, len(back), len(train))
	}
	for i := range back {
		if back[i].Name != train[i].Name || back[i].Model != train[i].Model || back[i].Steps != train[i].Steps {
			return nil, fmt.Errorf("trace %s row %d reads back as %+v, wrote %+v", path, i+1, back[i], train[i])
		}
	}
	return &stream{tracePath: path, extra: infer, names: append(specNames(train), specNames(infer)...)}, nil
}

// writeTrace writes w as a CSV trace tracefile.Reader accepts: submission
// and deadline times in seconds, formatted to round-trip exactly.
func writeTrace(path string, w place.Workload) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	sec := func(ns float64) string { return strconv.FormatFloat(ns/1e9, 'g', -1, 64) }
	fmt.Fprintln(bw, "job,model,submit,priority,weight,steps,deadline")
	for _, j := range w {
		deadline := ""
		if j.DeadlineNs > 0 {
			deadline = sec(j.DeadlineNs)
		}
		fmt.Fprintf(bw, "%s,%s,%s,%d,%g,%d,%s\n", j.Name, j.Model, sec(j.ArrivalNs), j.Priority, j.Weight, j.Steps, deadline)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// setupTimes splits one set-up into its layers, in seconds.
type setupTimes struct {
	total, build, profile float64
}

// setup generates the input, builds its model graphs and, when the fleet
// has KNL nodes, fills the process-wide profile cache their runtimes read
// from empty — everything a run needs before its first job.
func setup(w *workload, seed uint64, dir string) (*input, setupTimes, error) {
	perfmodel.ResetCache()
	t0 := now()
	in, err := w.build(seed, dir)
	if err != nil {
		return nil, setupTimes{}, fmt.Errorf("set up %s: %w", w.name, err)
	}
	t1 := now()
	graphs := in.graphs()
	t2 := now()
	if w.cluster.Nodes > 0 {
		knl := hw.NewKNL()
		for _, g := range graphs {
			perfmodel.CachedProfileGraph(knl, g, profileInterval)
		}
	}
	t3 := now()
	return in, setupTimes{total: secs(t3 - t0), build: secs(t2 - t1), profile: secs(t3 - t2)}, nil
}
