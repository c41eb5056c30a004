// Package pipeline restructures the cluster placement engine into an open,
// channel-fed stream of three stages — admission (validation, sequence
// tagging, arrival clamping), execution (placement decisions, lockstep
// rounds and preemption triggers, owning the engine and its virtual clock),
// and metrics (incremental queue/JCT percentiles published while jobs are
// still in flight) — the staged-pipeline idiom of Octopus's block pipeline
// (graph_builder → scheduler → executor with an END-flag shutdown) applied
// to the trace-driven serving shape of the multi-tenant DNN scheduling
// literature. Each placement decision is one call made inline where
// execution dispatches the job, not a hand-off to another stage.
//
// Every stage is one goroutine joined to its neighbours by a channel; an
// explicit END flag travels the whole chain ahead of each channel close, so
// shutdown is ordered and every in-flight job drains before the result is
// sealed. Context cancellation unwinds all three stages without leaking a
// goroutine.
//
// Execution drives the same open place.Engine the batch API wraps, through
// the same Arrive and Drain calls, so replaying a closed, arrival-sorted
// workload through the pipeline renders byte-identically to
// place.PlaceJobs — the equivalence go test checks, which lets the
// simulator and the service share one engine. Replay drives a trace Source
// (for example a streaming tracefile.Reader) through the pipeline at native
// or time-compressed arrival rates without ever materializing the full job
// slice.
package pipeline

import (
	"context"
	"fmt"
	"sync"

	"opsched/internal/place"
)

// stageFlag tags every inter-stage message; flagEnd is the END sentinel
// that precedes each stage's channel close during an ordered shutdown.
type stageFlag int

const (
	flagJob stageFlag = iota
	flagReject
	flagTick
	flagEnd
)

// stageMsg is the message type of the admission→execution channel.
type stageMsg struct {
	flag   stageFlag
	seq    int           // submission sequence (flagJob)
	spec   place.JobSpec // canonicalized spec (flagJob)
	err    error         // rejection cause (flagReject)
	tickNs float64       // virtual-time horizon (flagTick)
}

// evKind tags execution→metrics events.
type evKind int

const (
	evPlaced evKind = iota
	evCompleted
	evRejected
	evTick
)

// evMsg is the execution→metrics channel's message type.
type evMsg struct {
	flag stageFlag
	kind evKind
	job  place.PlacedJob
	atNs float64
}

// Config assembles a pipeline: the cluster and placement options the
// execution stage builds its engine from, plus streaming knobs.
type Config struct {
	// Cluster and Options are place.PlaceJobs' parameters, verbatim.
	Cluster place.Cluster
	Options place.Options
	// Buffer is each inter-stage channel's depth, and so the largest burst
	// of messages execution takes or hands on at once; <= 0 means 64.
	Buffer int
	// SnapshotEvery asks the metrics stage to publish a live Snapshot to
	// OnSnapshot after every N-th job completion (0 disables). Driven by
	// completions, not wall time, so replay snapshots are deterministic.
	SnapshotEvery int
	// OnSnapshot receives live snapshots; it is invoked from the metrics
	// stage goroutine and must not block indefinitely.
	OnSnapshot func(Snapshot)
}

func (c Config) buffer() int {
	if c.Buffer <= 0 {
		return 64
	}
	return c.Buffer
}

// Pipeline is one running admission→execution→metrics chain.
// Submit jobs (and optionally Ticks) from any goroutine, Close to send the
// END flag, Wait for the sealed result; Snapshot reads live metrics at any
// point in between.
type Pipeline struct {
	cfg Config
	eng *place.Engine

	ctx    context.Context
	cancel context.CancelFunc

	in       chan stageMsg
	inMu     sync.RWMutex
	inClosed bool

	met *liveMetrics
	// po holds the pre-bound pipeline instruments when Config.Options.Obs
	// carries a metrics registry; nil disables them (stages pay one nil
	// check per message). Engine-level instruments attach inside
	// place.NewEngine from the same Observer.
	po *pipeObs

	res  *place.Result
	err  error
	once sync.Once

	done      chan struct{}
	stageDone [numStages]chan struct{}
}

// Stage indices of the done-channel barrier, in pipeline order.
const (
	stageAdmission = iota
	stageExecution
	stageMetrics
	numStages
)

// New assembles the three stages over a fresh engine and starts them. The
// pipeline runs until Close drains it or ctx is cancelled; every
// constructor error (invalid cluster, unknown policy/arbiter/trigger)
// surfaces here, before any goroutine starts.
func New(ctx context.Context, cfg Config) (*Pipeline, error) {
	eng, err := place.NewEngine(cfg.Cluster, cfg.Options)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cctx, cancel := context.WithCancel(ctx)
	p := &Pipeline{
		cfg: cfg, eng: eng,
		ctx: cctx, cancel: cancel,
		in:   make(chan stageMsg, cfg.buffer()),
		met:  newLiveMetrics(),
		done: make(chan struct{}),
	}
	if reg := cfg.Options.Obs.MetricsOrNil(); reg != nil {
		p.po = newPipeObs(reg)
	}
	for i := range p.stageDone {
		p.stageDone[i] = make(chan struct{})
	}

	admCh := make(chan stageMsg, cfg.buffer())
	evCh := make(chan evMsg, cfg.buffer())

	go p.admission(p.in, admCh)
	go p.execution(admCh, evCh)
	go p.metricsStage(evCh)
	go func() {
		// The done barrier: Wait unblocks only once every stage goroutine
		// has exited — the leak-freedom the lifecycle tests assert on.
		for i := range p.stageDone {
			<-p.stageDone[i]
		}
		close(p.done)
	}()
	return p, nil
}

// fail records the pipeline's first error and unwinds every stage.
func (p *Pipeline) fail(err error) {
	if err == nil {
		return
	}
	p.once.Do(func() { p.err = err })
	p.cancel()
}

// Submit feeds one job into the admission stage. It blocks while the
// pipeline's buffers are full and fails once the pipeline is closed or
// cancelled. Validation happens in the admission stage: an invalid spec is
// rejected (counted in Snapshot), not returned here.
func (p *Pipeline) Submit(j place.JobSpec) error {
	return p.feed(stageMsg{flag: flagJob, spec: j})
}

// Tick advances the execution stage's virtual clock to nowNs even if no
// further job has arrived, retiring every due wave round — what lets a
// live server report completions between submissions. Batch and replay
// feeders never tick, keeping their runs deterministic.
func (p *Pipeline) Tick(nowNs float64) error {
	return p.feed(stageMsg{flag: flagTick, tickNs: nowNs})
}

func (p *Pipeline) feed(m stageMsg) error {
	p.inMu.RLock()
	defer p.inMu.RUnlock()
	if p.inClosed {
		return fmt.Errorf("pipeline: closed")
	}
	select {
	case p.in <- m:
		return nil
	case <-p.ctx.Done():
		return fmt.Errorf("pipeline: %w", p.ctx.Err())
	}
}

// Close declares the end of the stream: the END flag enters the admission
// stage and propagates through every stage ahead of its channel close.
// Safe to call more than once.
func (p *Pipeline) Close() {
	p.inMu.Lock()
	defer p.inMu.Unlock()
	if !p.inClosed {
		p.inClosed = true
		close(p.in)
	}
}

// Wait blocks until the pipeline has fully drained (or failed) and returns
// the sealed result: per-job outcomes in admission order. Callers that
// submitted out of input order reorder afterwards.
func (p *Pipeline) Wait() (*place.Result, error) {
	<-p.done
	p.cancel()
	if p.err != nil {
		return nil, p.err
	}
	if p.res == nil {
		return nil, fmt.Errorf("pipeline: cancelled before drain: %w", p.ctx.Err())
	}
	return p.res, nil
}

// Snapshot reads the live metrics: counts, means and p50/p95/p99 queue and
// JCT percentiles over everything completed so far. Safe from any
// goroutine, any time.
func (p *Pipeline) Snapshot() Snapshot {
	return p.met.Snapshot()
}

// send delivers m unless the pipeline is cancelled first.
func sendMsg[T any](ctx context.Context, ch chan<- T, m T) bool {
	select {
	case ch <- m:
		return true
	case <-ctx.Done():
		return false
	}
}

// recv receives unless the pipeline is cancelled first; ok is false on
// cancellation or channel close.
func recvMsg[T any](ctx context.Context, ch <-chan T) (T, bool) {
	var zero T
	select {
	case m, ok := <-ch:
		if !ok {
			return zero, false
		}
		return m, true
	case <-ctx.Done():
		return zero, false
	}
}

// recvBurst receives one message like recvMsg, then appends every message
// already buffered in ch, up to cap(buf), without blocking again.
func recvBurst[T any](ctx context.Context, ch <-chan T, buf []T) ([]T, bool) {
	m, ok := recvMsg(ctx, ch)
	if !ok {
		return buf, false
	}
	buf = append(buf, m)
	for len(buf) < cap(buf) {
		select {
		case m, ok := <-ch:
			if !ok {
				return buf, true
			}
			buf = append(buf, m)
		default:
			return buf, true
		}
	}
	return buf, true
}
