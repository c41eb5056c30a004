// Package exec is the discrete-event execution engine that plays the role
// of the TensorFlow runtime. It has one op-event loop: it tracks operation
// readiness in one or more dataflow graphs, asks each graph's pluggable
// Scheduler how to launch its ready operations, and advances one virtual
// clock through launch/finish events. Execution times come from the hw
// machine model and are recomputed whenever the co-running set changes, so
// memory-bandwidth contention and hyper-threading sharing between
// co-runners are captured (processor-sharing semantics with
// piecewise-constant rates).
//
// CoRun runs several jobs through the loop, each seeing only its own
// operations; a claim policy the caller passes orders the jobs and caps
// the cores each may hold at every scheduling event. Run, the solo
// training step, is the one-job case with no cap.
//
// A run's only op-level output is its records: one OpRecord per operation
// with its start and finish times, threads and placement. Everything
// per-op is derived from them; CoRunning, for one, rebuilds the
// co-running count at every launch and completion (the paper's Figure 4).
package exec

import (
	"fmt"

	"opsched/internal/graph"
	"opsched/internal/hw"
)

// Decision is a scheduler's instruction to launch one ready operation.
type Decision struct {
	// Node is the ready operation to launch.
	Node graph.NodeID
	// Job identifies which training job the operation belongs to when
	// several jobs share the machine (its index in CoRun's jobs; 0 in Run).
	// Schedulers never need to set it: the loop does.
	Job int
	// Threads is the intra-op parallelism.
	Threads int
	// Placement is the tile layout of the threads.
	Placement hw.Placement
	// HT marks a hyper-threading co-run (Strategy 4): the operation is
	// placed on the second hardware thread of cores already occupied by a
	// running operation, consuming no core budget but slowing its hosts.
	HT bool
	// Pinned means the operation's threads are bound to cores disjoint
	// from every other pinned operation — what the paper's runtime does
	// when it partitions cores between co-runners. Unpinned operations
	// model stock TensorFlow/MKL behaviour: each operation's OpenMP pool
	// is laid out compactly from core 0, so concurrently running unpinned
	// operations stack onto the same cores and pay SMT/oversubscription
	// costs even when their total thread count would fit the machine.
	Pinned bool
}

// Running describes one operation in flight. Schedulers may inspect but
// not modify it.
type Running struct {
	Node      graph.NodeID
	Job       int // owning job (0 in single-job execution)
	Threads   int
	Placement hw.Placement
	HT        bool
	Pinned    bool
	StartNs   float64

	price     hw.OpPrice // context-free terms; recomputeRates rescales them
	remaining float64    // fraction of the op still to execute, in (0,1]
	nominal   float64    // duration under the current context, ns
	demand    float64    // solo memory-bandwidth demand, bytes/ns

	// Set by recomputeRates: hyper-threading guests riding this op, its
	// SMT stacking depth and its compute-throughput scale.
	guests int
	depth  int
	scale  float64
}

// RemainingNs estimates how long the operation still needs under the
// current co-run conditions — what the paper's Strategy 3 compares against
// a candidate's predicted time ("does not take longer than ongoing
// operations").
func (r *Running) RemainingNs() float64 { return r.remaining * r.nominal }

// State is a scheduler's view of the machine at a decision point: its own
// job's graph, ready queue and in-flight operations.
type State struct {
	// Machine is the hardware model.
	Machine *hw.Machine
	// Graph is the dataflow graph being executed.
	Graph *graph.Graph
	// Ready lists ready-to-run operations in FIFO (enqueue) order.
	Ready []graph.NodeID
	// Running lists operations in flight.
	Running []*Running
}

// IdleCores returns the number of physical cores not occupied by non-HT
// running operations.
func (s *State) IdleCores() int {
	used := 0
	for _, r := range s.Running {
		if !r.HT {
			used += r.Placement.CoresUsed(s.Machine, r.Threads)
		}
	}
	idle := s.Machine.Cores - used
	if idle < 0 {
		return 0
	}
	return idle
}

// MaxRemainingNs returns the longest remaining time among running
// operations (0 if none are running).
func (s *State) MaxRemainingNs() float64 {
	max := 0.0
	for _, r := range s.Running {
		if t := r.RemainingNs(); t > max {
			max = t
		}
	}
	return max
}

// Scheduler decides which ready operations to launch. It is called at the
// start of execution and after every operation completion; it may add no
// decisions to leave cores idle until the next event.
type Scheduler interface {
	// Name identifies the policy in reports.
	Name() string
	// Schedule appends launch decisions for the current state to dst and
	// returns the extended slice, as strconv.AppendInt does: it must leave
	// dst[:len(dst)] unchanged, and the caller owns the result, so an
	// engine passes the same buffer back (truncated to zero length) on
	// every call and schedules without allocating. The appended decisions
	// are applied in order; invalid decisions (not-ready nodes,
	// non-positive thread counts) abort execution with an error.
	//
	// The decisions must be a deterministic function of the view st (and
	// of the scheduler's own fixed configuration): asked twice about an
	// unchanged view, a scheduler answers the same. The loop relies on it
	// and does not re-ask a job with nothing in flight that launched
	// nothing under a core limit at least as large.
	Schedule(st *State, dst []Decision) []Decision
}

// Validate sanity-checks a decision against the current state.
func (d Decision) Validate(st *State) error {
	if d.Threads <= 0 {
		return fmt.Errorf("exec: decision for node %d has %d threads", d.Node, d.Threads)
	}
	if !d.Placement.Valid() {
		return fmt.Errorf("exec: decision for node %d has invalid placement", d.Node)
	}
	if d.Pinned && d.Threads > st.Machine.Cores {
		// A pinned operation's threads are bound one-per-core to cores
		// disjoint from other pinned operations; more threads than physical
		// cores is an impossible placement (unpinned pools model stock
		// TensorFlow and may oversubscribe).
		return fmt.Errorf("exec: pinned decision for node %d wants %d threads but machine has %d cores",
			d.Node, d.Threads, st.Machine.Cores)
	}
	if d.HT {
		// A hyper-threading guest rides the second hardware thread of cores
		// some running operation occupies; with no non-HT operation in
		// flight there is no host to ride. Decisions in one batch launch in
		// order, so a host launched earlier in the same batch counts.
		host := false
		for _, r := range st.Running {
			if !r.HT {
				host = true
				break
			}
		}
		if !host {
			return fmt.Errorf("exec: HT decision for node %d has no running host operation", d.Node)
		}
	}
	for _, id := range st.Ready {
		if id == d.Node {
			return nil
		}
	}
	return fmt.Errorf("exec: node %d is not ready", d.Node)
}
