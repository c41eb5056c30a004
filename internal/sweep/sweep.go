// Package sweep is the experiment sweep engine: it fans independent work
// items — whole named experiments, job-mix cells or cluster-placement
// cells — across a bounded pool of goroutines. Each worker is goroutine-confined
// (every item builds its own graphs, schedulers and runtimes; the hardware
// model is read-only; hill-climb profiles are shared through the
// mutex-guarded perfmodel cache), results are collected by item index so
// output order never depends on completion order, and a cancelled context
// stops new items from starting (in-flight experiments run to completion —
// the experiment regenerators do not take a context, so a worker cannot
// abandon one midway). The design follows the multi-tenant scheduling
// literature's move of fanning independent DNN configurations across
// workers (Yu et al., 2021) applied to the paper's own evaluation: all 11
// tables and figures of Liu et al. (IPDPS 2019) are mutually independent.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"opsched/internal/experiments"
	"opsched/internal/hw"
)

// Parallelism clamps a requested worker count: n <= 0 means GOMAXPROCS, and
// the pool never exceeds the number of items it is given work for.
func Parallelism(n, items int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > items {
		n = items
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Map runs fn over every item on up to parallelism goroutines and returns
// the results indexed exactly like items. Errors are deterministic
// regardless of completion order: every item runs (a failing item does not
// abort its siblings — sweep items are independent experiments) and the
// error of the lowest-indexed failing item is returned. Cancelling ctx
// skips unstarted items; in-flight fns see the cancelled ctx but run to
// completion unless they observe it themselves. ctx.Err is returned when
// items were skipped, unless some item failed of its own accord first.
func Map[T, R any](ctx context.Context, parallelism int, items []T, fn func(ctx context.Context, idx int, item T) (R, error)) ([]R, error) {
	results := make([]R, len(items))
	if len(items) == 0 {
		return results, ctx.Err()
	}
	workers := Parallelism(parallelism, len(items))

	var (
		mu      sync.Mutex
		itemErr error        // lowest-indexed fn error
		errIdx  = len(items) //
		ctxErr  error        // set when cancellation skipped items
	)
	fail := func(idx int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if idx < errIdx {
			itemErr, errIdx = err, idx
		}
	}

	idxCh := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for idx := range idxCh {
				if err := ctx.Err(); err != nil {
					mu.Lock()
					ctxErr = err
					mu.Unlock()
					continue
				}
				r, err := fn(ctx, idx, items[idx])
				if err != nil {
					fail(idx, err)
					continue
				}
				results[idx] = r
			}
		}()
	}
feed:
	for idx := range items {
		select {
		case idxCh <- idx:
		case <-ctx.Done():
			mu.Lock()
			ctxErr = ctx.Err()
			mu.Unlock()
			break feed
		}
	}
	close(idxCh)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	switch {
	case itemErr != nil:
		return nil, itemErr
	case ctxErr != nil:
		return nil, ctxErr
	}
	return results, nil
}

// ExperimentReport is one regenerated table or figure.
type ExperimentReport struct {
	// Name is the experiment name (experiments.Names order in full sweeps).
	Name string
	// Report is the rendered paper-style table. It is deterministic: a
	// parallel sweep renders byte-identical reports to a serial one.
	Report string
	// Elapsed is the wall-clock time this experiment took inside its
	// worker. It is the only nondeterministic field.
	Elapsed time.Duration
}

// Experiments regenerates the named experiments (nil or empty means all, in
// paper order) on machine m, fanning them across up to parallelism workers.
func Experiments(ctx context.Context, m *hw.Machine, names []string, parallelism int) ([]ExperimentReport, error) {
	if len(names) == 0 {
		names = experiments.Names()
	}
	if m == nil {
		m = hw.NewKNL()
	}
	return Map(ctx, parallelism, names, func(ctx context.Context, _ int, name string) (ExperimentReport, error) {
		start := time.Now()
		res, err := experiments.Run(name, m)
		if err != nil {
			return ExperimentReport{}, fmt.Errorf("sweep: experiment %s: %w", name, err)
		}
		return ExperimentReport{Name: name, Report: res.Render(), Elapsed: time.Since(start)}, nil
	})
}
