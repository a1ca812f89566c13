package gmdj

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

// governData builds a base/detail pair sized so a parallel scan is in
// flight long enough for a concurrent cancel to land mid-partition.
func governData(nBase, nDetail int) (*relation.Relation, *relation.Relation) {
	base := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt},
	))
	for i := 0; i < nBase; i++ {
		base.Append(relation.Tuple{value.Int(int64(i))})
	}
	detail := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "R", Name: "k", Type: value.KindInt},
	))
	for i := 0; i < nDetail; i++ {
		detail.Append(relation.Tuple{value.Int(int64(i % (2 * nBase)))})
	}
	return base, detail
}

// parallelBase is the smallest base relation.FanOut shards: tests of
// the worker pool use it so they run parallel at any degree above 1.
const parallelBase = 2 * relation.MorselRows

// nonEquiCond forces the per-detail full base scan (no equi binding),
// the slowest GMDJ path — maximizing the window in which cancellation
// must be observed.
func nonEquiCond() []algebra.GMDJCond {
	return []algebra.GMDJCond{{
		Theta: expr.NewCmp(value.LT, expr.C("B.k"), expr.C("R.k")),
		Aggs:  []agg.Spec{{Func: agg.CountStar, As: "cnt"}},
	}}
}

// TestParallelConcurrentCancellation races a 4-worker scan against
// cancellation arriving at varied offsets. Run under -race this also
// checks the pool's stop-flag/first-error synchronization. Either the
// scan wins (nil error) or the cancel wins (ErrCanceled); anything
// else — a hang, a leak, an unmapped context error — fails.
func TestParallelConcurrentCancellation(t *testing.T) {
	base, detail := governData(parallelBase, 30_000)
	conds := nonEquiCond()
	before := runtime.NumGoroutine()
	delays := []time.Duration{0, 50 * time.Microsecond, 200 * time.Microsecond, 1 * time.Millisecond, 5 * time.Millisecond}
	for _, d := range delays {
		for trial := 0; trial < 2; trial++ {
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func(d time.Duration) {
				defer close(done)
				time.Sleep(d)
				cancel()
			}(d)
			out, err := Evaluate(base, detail, conds, Options{
				Workers: 4,
				Gov:     govern.New(ctx, govern.Budget{}),
			})
			if err != nil && !errors.Is(err, govern.ErrCanceled) {
				t.Fatalf("delay %v: err = %v, want nil or ErrCanceled", d, err)
			}
			if err == nil && out.Len() != base.Len() {
				t.Fatalf("delay %v: completed scan returned %d rows, want %d", d, out.Len(), base.Len())
			}
			<-done
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, started with %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestParallelBudgetAbort: a row budget breached at emit time aborts a
// parallel evaluation with the typed budget error.
func TestParallelBudgetAbort(t *testing.T) {
	base, detail := governData(parallelBase, 100)
	gov := govern.New(context.Background(), govern.Budget{MaxRows: 5})
	_, err := Evaluate(base, detail, nonEquiCond(), Options{Workers: 4, Gov: gov})
	if !errors.Is(err, govern.ErrRowBudget) {
		t.Fatalf("err = %v, want ErrRowBudget", err)
	}
}

// TestParallelWorkerErrorStopsPool: an injected failure on one worker
// propagates as the evaluation's error and stops the remaining
// workers promptly (the pool drains within one row of the failure).
func TestParallelWorkerErrorStopsPool(t *testing.T) {
	base, detail := governData(parallelBase, 30_000)
	faults := govern.NewInjector(map[string]string{"gmdj.worker": "error"})
	start := time.Now()
	_, err := Evaluate(base, detail, nonEquiCond(), Options{Workers: 4, Faults: faults})
	if !errors.Is(err, govern.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("pool took %v to stop after worker error", el)
	}
}

// TestParallelWorkerPanicRecovered: a worker panic is recovered on the
// worker goroutine and converted to a typed internal error instead of
// crashing the process.
func TestParallelWorkerPanicRecovered(t *testing.T) {
	base, detail := governData(parallelBase, 1000)
	faults := govern.NewInjector(map[string]string{"gmdj.worker": "panic"})
	_, err := Evaluate(base, detail, nonEquiCond(), Options{Workers: 4, Faults: faults})
	if !errors.Is(err, govern.ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	var ie *govern.InternalError
	if !errors.As(err, &ie) || len(ie.Stack) == 0 {
		t.Fatalf("err = %v, want *govern.InternalError with stack", err)
	}
}

// TestSerialCancellation: the serial scan honors the governor too.
func TestSerialCancellation(t *testing.T) {
	base, detail := governData(10, 30_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Evaluate(base, detail, nonEquiCond(), Options{
		Gov: govern.New(ctx, govern.Budget{}),
	})
	if !errors.Is(err, govern.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}
