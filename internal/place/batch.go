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
// of the same workload are byte-identical by construction. The engine's
// job table is sized to the workload up front. Execution is fully
// deterministic, and a preemptive run whose triggers never fire reports
// byte-identically to a run-to-completion one.
func PlaceJobs(w Workload, c Cluster, opts Options) (*Result, error) {
	e, order, err := runBatch(w, c, opts)
	if err != nil {
		return nil, err
	}
	// The engine admits jobs in arrival order; the batch API contract is
	// workload input order, so the k-th admitted job's outcome lands at
	// Jobs[order[k]].
	return e.finish(order), nil
}

// runBatch is PlaceJobs up to sealing the run: it returns the drained
// engine and the admission order as input indices.
func runBatch(w Workload, c Cluster, opts Options) (*Engine, []int, error) {
	specs, err := w.Canonical()
	if err != nil {
		return nil, nil, err
	}
	// The job table holds exactly this workload: one slab, no segments.
	e, err := newEngine(c, opts, len(specs))
	if err != nil {
		return nil, nil, err
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
			return nil, nil, err
		}
	}
	if _, err := e.Drain(); err != nil {
		return nil, nil, err
	}
	return e, order, nil
}
