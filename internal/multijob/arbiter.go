package multijob

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"opsched/internal/exec"
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

// key is job j's sort key at a scheduling event: its progress under
// FairShare, its remaining work under SRWF.
func (a Arbiter) key(j *jobState) float64 {
	if a == SRWF {
		return j.remainingWork
	}
	return j.progress()
}

// compare orders jobs x and y by the policy: negative when x claims cores
// first, zero on a tie (which the caller breaks on job index).
func (a Arbiter) compare(x, y *jobState) int {
	if a == Priority {
		return cmp.Compare(y.Priority, x.Priority)
	}
	return cmp.Compare(x.key, y.key)
}

// coreCap returns the most physical cores job j may hold during a scheduling
// event (cores it already holds included): a fixed share of the machine
// under FairShare, whatever the jobs ahead leave idle under the strict
// orders. total is the active jobs' weight sum.
func (a Arbiter) coreCap(j *jobState, m *hw.Machine, total float64) int {
	if a == FairShare {
		return max(fairShare(m.Cores, j.weight(), total), 1)
	}
	return exec.Leftover
}

// fairShare is floor(cores * w / total), exact for the given float64
// values. The rounded quotient alone can land just below an exact integer:
// a lone job of weight 1.887676273034419 on 68 cores computes
// 68*w/w = 67.99…, one core short of the whole machine. The quotient q is
// two roundings from the exact one, so within q·2^-51 of it, and its floor
// is exact unless q lies that close to an integer. There each step
// compares n * total with cores * w exactly.
func fairShare(cores int, w, total float64) int {
	c := float64(cores)
	q := c * w / total
	n := math.Floor(q)
	if m := q * 0x1p-50; q-n > m && n+1-q > m {
		return int(n)
	}
	for n < c && productLE(n+1, total, c, w) {
		n++
	}
	for n > 0 && !productLE(n, total, c, w) {
		n--
	}
	return int(n)
}

// productLE reports whether a*b <= c*d for the exact real products of
// finite float64 values. Rounding is monotone, so unequal rounded
// products order the exact ones; equal ones differ only by their rounding
// errors, which an FMA gives exactly (barring underflow).
func productLE(a, b, c, d float64) bool {
	p, q := float64(a*b), float64(c*d)
	if p != q {
		return p < q
	}
	return math.FMA(a, b, -p) <= math.FMA(c, d, -q)
}
