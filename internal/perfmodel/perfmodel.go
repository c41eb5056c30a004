// Package perfmodel implements the paper's adopted performance model: a
// hill-climbing search over intra-op thread counts (§III-C). Starting from
// one thread, the search increases the thread count by a fixed interval x,
// measuring each candidate under both thread placements (cache-sharing and
// non-sharing), until the execution time stops improving or the physical
// cores run out. Execution times of untested thread counts are estimated by
// linear interpolation between measured neighbours — cheap, architecture-
// independent, and (for small x) highly accurate, because the measured
// time-vs-threads curves are convex with a single interior optimum.
package perfmodel

import (
	"fmt"
	"math"
	"sort"

	"opsched/internal/hw"
)

// TimeFunc measures (or simulates) the execution time, in nanoseconds, of
// one operation class run with p threads under placement pl.
type TimeFunc func(p int, pl hw.Placement) float64

// Config is one intra-op parallelism choice with its (measured or
// predicted) execution time.
type Config struct {
	Threads   int
	Placement hw.Placement
	TimeNs    float64
}

// String implements fmt.Stringer.
func (c Config) String() string {
	return fmt.Sprintf("%d threads/%s: %.3f ms", c.Threads, c.Placement, c.TimeNs/1e6)
}

// Case is one of the valid intra-op parallelism cases of the search space.
// On KNL there are 68: thread counts 1..34 with one thread per tile, and
// even thread counts 2..68 with two threads per tile (odd counts under
// sharing would leave a tile imbalanced).
type Case struct {
	Threads   int
	Placement hw.Placement
}

// ValidCases enumerates the search space for machine m in a stable order.
func ValidCases(m *hw.Machine) []Case {
	var cases []Case
	for p := 1; p <= m.Tiles(); p++ {
		cases = append(cases, Case{p, hw.Spread})
	}
	for p := 2; p <= m.Cores; p += 2 {
		cases = append(cases, Case{p, hw.Shared})
	}
	return cases
}

// Profile is the hill-climbing result for one operation class: the sampled
// points, the best configuration found, and the interpolation machinery for
// everything in between.
type Profile struct {
	// Signature identifies the operation class.
	Signature string
	// Interval is the climb step x.
	Interval int
	// Best is the optimal configuration the climb found.
	Best Config
	// StepsUsed counts profiling steps consumed (two per candidate thread
	// count: one per placement), bounded by C/x × 2 as in the paper.
	StepsUsed int

	samples map[hw.Placement][]Config // sorted by Threads
}

// Measured returns the measured time at an exactly-sampled configuration.
func (pr *Profile) Measured(p int, pl hw.Placement) (float64, bool) {
	for _, s := range pr.samples[pl] {
		if s.Threads == p {
			return s.TimeNs, true
		}
	}
	return 0, false
}

// Samples returns the measured configurations for a placement, sorted by
// thread count. The slice is shared; callers must not modify it.
func (pr *Profile) Samples(pl hw.Placement) []Config { return pr.samples[pl] }

// Predict estimates the execution time at any thread count and placement:
// measured points are returned exactly; points between two samples are
// linearly interpolated; points outside the sampled range are linearly
// extrapolated from the nearest segment (clamped to stay positive).
func (pr *Profile) Predict(p int, pl hw.Placement) float64 {
	ss := pr.samples[pl]
	if len(ss) == 0 {
		// Fall back to the other placement rather than fail.
		for opl, alt := range pr.samples {
			if opl != pl && len(alt) > 0 {
				ss = alt
				break
			}
		}
		if len(ss) == 0 {
			return math.NaN()
		}
	}
	if len(ss) == 1 {
		return ss[0].TimeNs
	}
	i := sort.Search(len(ss), func(i int) bool { return ss[i].Threads >= p })
	switch {
	case i < len(ss) && ss[i].Threads == p:
		return ss[i].TimeNs
	case i == 0:
		i = 1 // extrapolate left from the first segment
	case i == len(ss):
		i = len(ss) - 1 // extrapolate right from the last segment
	}
	a, b := ss[i-1], ss[i]
	t := float64(p-a.Threads) / float64(b.Threads-a.Threads)
	v := a.TimeNs + t*(b.TimeNs-a.TimeNs)
	if min := 0.01 * a.TimeNs; v < min {
		v = min
	}
	return v
}

// TopConfigs returns the k most performant configurations (distinct thread
// counts, each with its better placement) over the whole search space —
// the candidate set Strategy 3 considers when fitting operations into idle
// cores. The result is a fresh slice of exactly the configurations
// returned, so holding it does not pin the rest of the ranking.
func (pr *Profile) TopConfigs(m *hw.Machine, k int) []Config {
	best := make(map[int]Config)
	for _, c := range ValidCases(m) {
		t := pr.Predict(c.Threads, c.Placement)
		if math.IsNaN(t) {
			continue
		}
		if cur, ok := best[c.Threads]; !ok || t < cur.TimeNs {
			best[c.Threads] = Config{c.Threads, c.Placement, t}
		}
	}
	out := make([]Config, 0, len(best))
	for _, c := range best {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TimeNs != out[j].TimeNs {
			return out[i].TimeNs < out[j].TimeNs
		}
		return out[i].Threads < out[j].Threads
	})
	if k < len(out) {
		top := make([]Config, k)
		copy(top, out)
		out = top
	}
	return out
}

// HillClimb configures the search.
type HillClimb struct {
	// Machine is the hardware model; nil means hw.NewKNL().
	Machine *hw.Machine
	// Interval is the climb step x (the paper evaluates 2, 4, 8, 16);
	// zero means 4, the paper's recommended trade-off.
	Interval int
}

func (h *HillClimb) machine() *hw.Machine {
	if h.Machine == nil {
		h.Machine = hw.NewKNL()
	}
	return h.Machine
}

func (h *HillClimb) interval() int {
	if h.Interval <= 0 {
		return 4
	}
	return h.Interval
}

// evenize maps a candidate thread count onto the cache-sharing placement's
// even grid.
func evenize(p int) int {
	if p <= 2 {
		return 2
	}
	return p - p%2
}

// Search runs the hill climb for one operation class, measuring times with
// timeFn. At each candidate count it samples both placements (two
// profiling steps); the climb stops at the first candidate whose best time
// exceeds the previous candidate's, or at the core count.
func (h *HillClimb) Search(signature string, timeFn TimeFunc) *Profile {
	m := h.machine()
	x := h.interval()

	pr := &Profile{
		Signature: signature,
		Interval:  x,
		samples:   make(map[hw.Placement][]Config),
	}
	add := func(p int, pl hw.Placement, t float64) {
		for _, s := range pr.samples[pl] {
			if s.Threads == p {
				return // already measured (evenize can repeat points)
			}
		}
		pr.samples[pl] = append(pr.samples[pl], Config{p, pl, t})
	}

	best := Config{TimeNs: math.Inf(1)}
	prev := math.Inf(1)
	for p := 1; ; p += x {
		if p > m.Cores {
			break
		}
		cur := math.Inf(1)

		if p <= m.Tiles() {
			t := timeFn(p, hw.Spread)
			pr.StepsUsed++
			add(p, hw.Spread, t)
			if t < cur {
				cur = t
			}
			if t < best.TimeNs {
				best = Config{p, hw.Spread, t}
			}
		}
		pe := evenize(p)
		if pe <= m.Cores {
			if _, seen := pr.Measured(pe, hw.Shared); !seen {
				t := timeFn(pe, hw.Shared)
				pr.StepsUsed++
				add(pe, hw.Shared, t)
				if t < cur {
					cur = t
				}
				if t < best.TimeNs {
					best = Config{pe, hw.Shared, t}
				}
			} else if t, _ := pr.Measured(pe, hw.Shared); t < cur {
				cur = t
			}
		}

		if cur > prev {
			break // case (1): execution time increased
		}
		prev = cur
	}

	for pl := range pr.samples {
		ss := pr.samples[pl]
		sort.Slice(ss, func(i, j int) bool { return ss[i].Threads < ss[j].Threads })
	}
	pr.Best = best
	return pr
}

// MachineTime adapts the hw model of an operation cost into a TimeFunc.
func MachineTime(m *hw.Machine, cost hw.OpCost) TimeFunc {
	return func(p int, pl hw.Placement) float64 {
		return m.SoloTime(cost, p, pl)
	}
}
