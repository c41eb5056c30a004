package multijob

import (
	"fmt"
	"slices"

	"opsched/internal/hw"
)

// Arbiter is the cross-job policy layered over the per-job schedulers: at
// every scheduling event it orders the unfinished jobs into the order they
// claim cores in, and caps how many physical cores each may hold
// (hyper-threading guests consume no budget). The policies are a closed
// set; the zero value is FairShare. Every order breaks ties on job index,
// so co-runs render byte-identical reports at any sweep parallelism.
type Arbiter uint8

const (
	// FairShare grants every unfinished job a weighted share of the
	// physical cores: floor(Cores * w_j / sum of active weights), never
	// below one core. The least-progressed job claims first (and wins the
	// idle-machine forced launch), so no job starves behind one whose
	// stream of completions keeps the machine busy. Jobs whose schedulers
	// insist on configurations wider than their share wait until
	// co-runners finish; the engine's progress guarantee lets the first job
	// in claim order exceed its budget when the machine is idle, so a share
	// can never deadlock the run.
	FairShare Arbiter = iota
	// Priority is strict priority scheduling: jobs claim cores in
	// descending Priority order, and a job may only occupy cores the jobs
	// ahead of it leave idle.
	Priority
	// SRWF is shortest-remaining-work-first: jobs claim cores in ascending
	// predicted remaining work — the sum, over each job's unfinished
	// operations, of the perfmodel-predicted execution time at the
	// operation's tuned configuration. Like Priority, a job may only occupy
	// cores that jobs ahead of it leave idle; unlike Priority the order
	// shifts as jobs retire work, draining short jobs first to cut mean job
	// makespan.
	SRWF
)

// arbiterNames spells each Arbiter, indexed by value.
var arbiterNames = [...]string{"fair", "priority", "srwf"}

// Name identifies the policy in results and CLI flags.
func (a Arbiter) Name() string {
	if !a.valid() {
		return fmt.Sprintf("Arbiter(%d)", uint8(a))
	}
	return arbiterNames[a]
}

// valid reports whether a is one of the three policies.
func (a Arbiter) valid() bool { return int(a) < len(arbiterNames) }

// Arbiters lists the policy names in NewArbiter's accepted spelling.
func Arbiters() []string { return slices.Clone(arbiterNames[:]) }

// NewArbiter resolves a policy name ("fair", "priority", "srwf") to its
// arbiter.
func NewArbiter(name string) (Arbiter, error) {
	if i := slices.Index(arbiterNames[:], name); i >= 0 {
		return Arbiter(i), nil
	}
	return 0, fmt.Errorf("multijob: unknown arbiter %q (have %v)", name, Arbiters())
}

// claimsFirst reports whether job x claims cores strictly ahead of job y
// under the policy's sort key (ties fall to the caller's index tie-break).
func (a Arbiter) claimsFirst(x, y *jobState) bool {
	switch a {
	case Priority:
		return x.Priority > y.Priority
	case SRWF:
		return x.remainingWork < y.remainingWork
	}
	return x.progress() < y.progress()
}

// budget returns the most physical cores job j may hold during one
// scheduling round (cores it already holds included). total is the active
// jobs' weight sum and ahead the cores held by the jobs before j in claim
// order.
func (a Arbiter) budget(j *jobState, m *hw.Machine, total float64, ahead int) int {
	if a == FairShare {
		return max(int(float64(m.Cores)*j.weight()/total), 1)
	}
	return max(m.Cores-ahead, 0)
}
