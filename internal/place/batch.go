package place

import (
	"cmp"
	"slices"
)

// PlaceJobs admits the workload onto the cluster under the given options
// and runs it to completion on one virtual cluster clock. It is a thin
// batch wrapper over the open Engine: the closed slice is canonicalized,
// sorted into (arrival time, input index) order, fed through Engine.Arrive
// one job at a time and finished with Engine.Drain — the same two calls the
// streaming pipeline's goroutine makes, so a batch run and a pipeline run
// of the same workload are byte-identical by construction. Execution is
// fully deterministic, and a preemptive run whose triggers never fire
// reports byte-identically to a run-to-completion one.
func PlaceJobs(w Workload, c Cluster, opts Options) (*Result, error) {
	specs, err := w.Canonical()
	if err != nil {
		return nil, err
	}
	e, err := NewEngine(c, opts)
	if err != nil {
		return nil, err
	}

	// Arrival order: by time, input index breaking ties.
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(specs[a].ArrivalNs, specs[b].ArrivalNs)
	})

	for _, idx := range order {
		if _, err := e.Arrive(specs[idx]); err != nil {
			return nil, err
		}
	}
	if _, err := e.Drain(); err != nil {
		return nil, err
	}

	// The engine admits jobs in arrival order; the batch API contract is
	// workload input order, so the k-th admitted job's outcome lands at
	// Jobs[order[k]].
	return e.finish(order), nil
}
