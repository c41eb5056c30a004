package multijob

import (
	"cmp"
	"fmt"
	"slices"

	"opsched/internal/hw"
)

// Arbiter is the cross-job policy layered over the per-job schedulers: at
// every scheduling point it orders the jobs that may claim cores and caps
// how many physical cores each may hold. Implementations must be
// deterministic — ties always break on job index — so co-runs render
// byte-identical reports at any sweep parallelism.
type Arbiter interface {
	// Name identifies the policy in results and CLI flags.
	Name() string
	// Order returns the unfinished jobs in the order they may claim cores
	// during one scheduling round.
	Order(js []*JobState) []*JobState
	// Budget returns the maximum number of physical cores job j may occupy
	// concurrently (cores it already holds included). Hyper-threading
	// guests consume no budget.
	Budget(j *JobState, js []*JobState, m *hw.Machine) int
}

// FairShare grants every unfinished job a weighted share of the physical
// cores: floor(Cores * w_j / sum of active weights), never below one core.
// Jobs whose schedulers insist on configurations wider than their share
// wait until co-runners finish (the engine's progress guarantee lets the
// first job in claim order exceed its budget when the machine is idle, so a
// share can never deadlock the run).
type FairShare struct{}

// Name implements Arbiter.
func (FairShare) Name() string { return "fair" }

// Order implements Arbiter: the least-progressed job claims first (and wins
// the idle-machine forced launch), so no job starves behind one whose
// stream of completions keeps the machine busy.
func (FairShare) Order(js []*JobState) []*JobState {
	return sortActive(js, func(a, b *JobState) bool { return a.ProgressFraction() < b.ProgressFraction() })
}

// Budget implements Arbiter. Inside an engine it reads the active-weight
// total the engine summed once for the scheduling event
// (JobState.activeWeight), so a round asking every job costs O(jobs), not
// O(jobs²).
func (FairShare) Budget(j *JobState, js []*JobState, m *hw.Machine) int {
	var total float64
	if len(js) > 0 && js[0].activeWeight != nil {
		total = *js[0].activeWeight
	} else {
		total = activeWeight(js)
	}
	if total <= 0 {
		return m.Cores
	}
	b := int(float64(m.Cores) * j.weight() / total)
	if b < 1 {
		b = 1
	}
	return b
}

// activeWeight sums the unfinished jobs' weights in index order.
func activeWeight(js []*JobState) float64 {
	total := 0.0
	for _, o := range js {
		if o.Active() {
			total += o.weight()
		}
	}
	return total
}

// Priority is strict priority scheduling: jobs claim cores in descending
// Priority order (ties on input index), and a job may only occupy cores the
// strictly higher-priority jobs leave idle.
type Priority struct{}

// Name implements Arbiter.
func (Priority) Name() string { return "priority" }

// Order implements Arbiter.
func (Priority) Order(js []*JobState) []*JobState {
	return sortActive(js, func(a, b *JobState) bool { return a.Priority > b.Priority })
}

// Budget implements Arbiter: the machine minus what higher-priority jobs
// hold.
func (p Priority) Budget(j *JobState, js []*JobState, m *hw.Machine) int {
	return leftoverBudget(j, p.Order(js), m)
}

// SRWF is shortest-remaining-work-first: jobs claim cores in ascending
// predicted remaining work — the sum, over each job's unfinished
// operations, of the perfmodel-predicted execution time at the operation's
// tuned configuration. Like Priority, a job may only occupy cores that jobs
// ahead of it leave idle; unlike Priority the order shifts as jobs retire
// work, draining short jobs first to cut mean job makespan.
type SRWF struct{}

// Name implements Arbiter.
func (SRWF) Name() string { return "srwf" }

// Order implements Arbiter.
func (SRWF) Order(js []*JobState) []*JobState {
	return sortActive(js, func(a, b *JobState) bool { return a.RemainingWorkNs() < b.RemainingWorkNs() })
}

// Budget implements Arbiter.
func (s SRWF) Budget(j *JobState, js []*JobState, m *hw.Machine) int {
	return leftoverBudget(j, s.Order(js), m)
}

// sortActive orders the unfinished jobs by less, breaking ties on job index
// for determinism: a total order, so the result is the stable sort's. It
// sorts into the engine's Order buffer when the jobs belong to an engine
// (JobState.order), so a scheduling round does not allocate; the result is
// then valid until the next Order call on that engine. Between completion
// events no sort key changes, so a Budget that re-runs Order mid-round
// rewrites the buffer with the very order the round is iterating.
func sortActive(js []*JobState, less func(a, b *JobState) bool) []*JobState {
	var out []*JobState
	if len(js) > 0 && js[0].order != nil {
		out = (*js[0].order)[:0]
	}
	for _, j := range js {
		if j.Active() {
			out = append(out, j)
		}
	}
	slices.SortFunc(out, func(a, b *JobState) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return cmp.Compare(a.Index, b.Index)
	})
	if len(js) > 0 && js[0].order != nil {
		*js[0].order = out
	}
	return out
}

// leftoverBudget is the shared strict-ordering budget: job j may hold
// whatever the jobs ahead of it in ordered do not.
func leftoverBudget(j *JobState, ordered []*JobState, m *hw.Machine) int {
	b := m.Cores
	for _, o := range ordered {
		if o == j {
			break
		}
		b -= o.CoresInUse(m)
	}
	if b < 0 {
		return 0
	}
	return b
}

// Arbiters lists the built-in policy names in NewArbiter's accepted
// spelling.
func Arbiters() []string { return []string{"fair", "priority", "srwf"} }

// NewArbiter resolves a policy name ("fair", "priority", "srwf") to its
// arbiter.
func NewArbiter(name string) (Arbiter, error) {
	switch name {
	case "fair":
		return FairShare{}, nil
	case "priority":
		return Priority{}, nil
	case "srwf":
		return SRWF{}, nil
	default:
		return nil, fmt.Errorf("multijob: unknown arbiter %q (have %v)", name, Arbiters())
	}
}
