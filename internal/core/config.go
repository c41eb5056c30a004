// Package core implements the paper's contribution: a concurrency-control
// and operation-scheduling runtime for dataflow-based NN training. After a
// few profiling steps drive a hill-climbing performance model (package
// perfmodel), the runtime decides the intra-op parallelism of every
// operation and which operations to co-run, through four strategies:
//
//	S1 — run each operation class at the thread count with the shortest
//	     predicted execution time;
//	S2 — avoid frequent concurrency changes: every instance of an
//	     operation kind uses the thread count tuned for the kind's
//	     largest-input instance;
//	S3 — co-run ready operations into idle cores, choosing among each
//	     operation's top-3 thread-count candidates the fitting one that
//	     does not lower system throughput (predicted time no longer than
//	     the longest-running ongoing operation), preferring fewer threads
//	     so more operations can join;
//	S4 — when a scalable operation holds every physical core, co-run the
//	     smallest ready operations on the second hardware thread
//	     (hyper-threading).
//
// The strategies' empirical constants are the paper's and are not
// settable: the hill-climbing step x is ProfileInterval (4); Strategy 3
// considers each operation's best candidates (3) thread counts; the
// Strategy-2/3 conflict rule keeps the Strategy-2 choice when a co-run
// candidate is more than maxThreadDelta (2) threads from it; Strategy 4
// runs at most maxHTGuests (2) hyper-threaded guests at once; and only
// MKL-DNN operations are re-tuned (Eigen operations pay a >10%
// re-parallelization overhead, so the rest keep the recommended
// full-width configuration).
//
// The runtime plugs into the exec engine as a Scheduler; disabling
// strategies reproduces the ablation of the paper's Figure 3.
package core

// ProfileInterval is the hill-climbing step x every runtime profiles
// with: the paper's accuracy/overhead sweet spot (94-95% prediction
// accuracy). Anything that ranks jobs by their profiled work must price
// it at this interval to read the profiles the jobs run with.
const ProfileInterval = 4

const (
	// candidates is the number of thread-count candidates Strategy 3
	// considers per operation.
	candidates = 3
	// maxThreadDelta is the Strategy-2/3 conflict bound: a co-run
	// candidate further than this many threads from the Strategy-2
	// choice is replaced by the Strategy-2 choice.
	maxThreadDelta = 2
	// maxHTGuests caps concurrently hyper-threaded small operations.
	maxHTGuests = 2
)

// Config selects the active strategies.
type Config struct {
	// Strategy1 enables per-class optimal intra-op parallelism.
	Strategy1 bool
	// Strategy2 freezes each kind to its largest-instance optimum.
	// It implies Strategy1's profiling.
	Strategy2 bool
	// Strategy3 enables co-running into idle cores.
	Strategy3 bool
	// Strategy4 enables hyper-threading co-run of small operations.
	Strategy4 bool
}

// Strategies12 is the Figure-3a configuration: concurrency control only.
func Strategies12() Config { return Config{Strategy1: true, Strategy2: true} }

// Strategies123 is the Figure-3b configuration: plus co-running.
func Strategies123() Config {
	return Config{Strategy1: true, Strategy2: true, Strategy3: true}
}

// AllStrategies is the full runtime of Figures 3c/3d.
func AllStrategies() Config {
	return Config{Strategy1: true, Strategy2: true, Strategy3: true, Strategy4: true}
}
