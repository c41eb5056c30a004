package place

import "sort"

// PlaceJobs admits the workload onto the cluster under the given options
// and runs it to completion on one virtual cluster clock. It is a thin
// batch wrapper over the open Engine: the closed slice is canonicalized,
// sorted into (arrival time, input index) order, fed through Engine.Arrive
// one job at a time and finished with Engine.Drain — the same two calls the
// streaming pipeline's execution stage makes, so a batch run and a pipeline
// run of the same workload are byte-identical by construction. Execution is
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
	sort.SliceStable(order, func(a, b int) bool {
		return specs[order[a]].ArrivalNs < specs[order[b]].ArrivalNs
	})

	for _, idx := range order {
		if _, err := e.Arrive(specs[idx]); err != nil {
			return nil, err
		}
	}
	if _, err := e.Drain(); err != nil {
		return nil, err
	}

	res := e.Finish()
	// The engine reports jobs in admission (arrival) order; the batch API
	// contract is workload input order. Every aggregate in finalize is
	// order-symmetric, so permuting after Finish is safe.
	jobs := make([]PlacedJob, len(res.Jobs))
	for k, inputIdx := range order {
		jobs[inputIdx] = res.Jobs[k]
	}
	res.Jobs = jobs
	return res, nil
}
