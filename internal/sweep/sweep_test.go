package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"opsched/internal/hw"
)

func TestParallelismClamp(t *testing.T) {
	if got := Parallelism(4, 2); got != 2 {
		t.Errorf("Parallelism(4, 2) = %d, want 2 (never more workers than items)", got)
	}
	if got := Parallelism(0, 10); got < 1 {
		t.Errorf("Parallelism(0, 10) = %d, want >= 1 (GOMAXPROCS default)", got)
	}
	if got := Parallelism(-3, 10); got < 1 {
		t.Errorf("Parallelism(-3, 10) = %d, want >= 1", got)
	}
	if got := Parallelism(7, 0); got != 1 {
		t.Errorf("Parallelism(7, 0) = %d, want 1", got)
	}
}

func TestMapResultsIndexedByItem(t *testing.T) {
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	for _, par := range []int{1, 4, 16} {
		got, err := Map(context.Background(), par, items, func(_ context.Context, idx, item int) (string, error) {
			return fmt.Sprintf("%d*%d", idx, item), nil
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}
		for i, r := range got {
			if want := fmt.Sprintf("%d*%d", i, i); r != want {
				t.Fatalf("parallel=%d: results[%d] = %q, want %q", par, i, r, want)
			}
		}
	}
}

func TestMapFirstErrorByIndex(t *testing.T) {
	boom7 := errors.New("boom 7")
	boom3 := errors.New("boom 3")
	// Whatever order workers hit the failures, the lowest-indexed error is
	// the one reported.
	for trial := 0; trial < 5; trial++ {
		_, err := Map(context.Background(), 8, []int{0, 1, 2, 3, 4, 5, 6, 7}, func(_ context.Context, idx, _ int) (int, error) {
			switch idx {
			case 7:
				return 0, boom7
			case 3:
				return 0, boom3
			}
			return idx, nil
		})
		if !errors.Is(err, boom3) {
			t.Fatalf("trial %d: err = %v, want %v (lowest failing index)", trial, err, boom3)
		}
	}
}

func TestMapCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	_, err := Map(ctx, 4, []int{1, 2, 3}, func(ctx context.Context, _, item int) (int, error) {
		ran.Add(1)
		return item, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d items ran despite pre-cancelled context", ran.Load())
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(context.Background(), 4, nil, func(_ context.Context, _ int, item int) (int, error) {
		return item, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("Map(nil items) = %v, %v; want empty, nil", got, err)
	}
}

// TestExperimentsParallelMatchesSerial is the determinism guarantee the
// bench tool relies on: a parallel sweep renders byte-identical reports to
// a serial one, in the same order.
func TestExperimentsParallelMatchesSerial(t *testing.T) {
	names := []string{"fig1", "table2", "table3"}
	m := hw.NewKNL()
	serial, err := Experiments(context.Background(), m, names, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Experiments(context.Background(), m, names, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(names) || len(parallel) != len(names) {
		t.Fatalf("lens = %d/%d, want %d", len(serial), len(parallel), len(names))
	}
	for i := range serial {
		if serial[i].Name != names[i] || parallel[i].Name != names[i] {
			t.Errorf("result %d: names %q/%q, want request order %q",
				i, serial[i].Name, parallel[i].Name, names[i])
		}
		if serial[i].Report != parallel[i].Report {
			t.Errorf("experiment %s: parallel report differs from serial", names[i])
		}
		if serial[i].Report == "" {
			t.Errorf("experiment %s: empty report", names[i])
		}
	}
}

func TestExperimentsUnknownName(t *testing.T) {
	_, err := Experiments(context.Background(), nil, []string{"nope"}, 2)
	if err == nil {
		t.Fatal("Experiments(nope) succeeded")
	}
}
