package gmdj

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/relation"
)

// The governance tests exercise every evaluation strategy: a governed
// abort must carry the same typed error no matter which physical plan
// was running.
var allStrategies = []Strategy{Native, Unnest, GMDJ, GMDJOpt}

// governQuery is a correlated aggregate subquery — the paper's core
// construct — so each strategy produces a genuinely different plan
// (tuple iteration, outer-join unnesting, GMDJ).
const governQuery = `
  SELECT h.hr FROM hours h
  WHERE 0 < (SELECT AVG(f.bytes) FROM flows f
             WHERE f.start >= h.lo AND f.start < h.hi)`

// governDB builds hours windows [i*10, i*10+10) and flows whose start
// times cover every window, so governQuery returns all `hours` rows.
func governDB(t testing.TB, hours, flows int) *DB {
	t.Helper()
	db := Open()
	db.MustCreateTable("hours", Col("hr", Int), Col("lo", Int), Col("hi", Int))
	rows := make([][]any, 0, hours)
	for i := 0; i < hours; i++ {
		rows = append(rows, []any{i, i * 10, (i + 1) * 10})
	}
	db.MustInsert("hours", rows...)
	db.MustCreateTable("flows", Col("start", Int), Col("proto", String), Col("bytes", Int))
	rows = rows[:0]
	span := hours * 10
	for i := 0; i < flows; i++ {
		proto := "HTTP"
		if i%3 == 0 {
			proto = "FTP"
		}
		rows = append(rows, []any{i % span, proto, i%100 + 1})
	}
	db.MustInsert("flows", rows...)
	return db
}

// parallelHours is the smallest hours table whose GMDJ base
// relation.FanOut shards, so worker-pool tests run parallel.
const parallelHours = 2 * relation.MorselRows

// waitGoroutines polls until the goroutine count settles back to at
// most want, tolerating runtime background goroutines that wind down
// asynchronously after a canceled query.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines did not settle: %d running, want <= %d", n, want)
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBudgetAbortsAllStrategies: each budget kind aborts each strategy
// with its matching typed error, promptly, without leaking goroutines.
func TestBudgetAbortsAllStrategies(t *testing.T) {
	db := governDB(t, 50, 4000)
	db.SetParallelism(4) // exercise the GMDJ worker pool's abort path too
	cases := []struct {
		name   string
		budget Budget
		want   error
	}{
		{"timeout", Budget{Timeout: time.Nanosecond}, ErrTimeout},
		{"max-rows", Budget{MaxRows: 10}, ErrRowBudget},
		{"max-mem", Budget{MaxMemBytes: 512}, ErrMemBudget},
	}
	before := runtime.NumGoroutine()
	for _, s := range allStrategies {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%v/%s", s, c.name), func(t *testing.T) {
				db.SetBudget(c.budget)
				defer db.SetBudget(Budget{})
				start := time.Now()
				_, err := db.QueryStrategy(governQuery, s)
				elapsed := time.Since(start)
				if !errors.Is(err, c.want) {
					t.Fatalf("err = %v, want %v", err, c.want)
				}
				if elapsed > 5*time.Second {
					t.Errorf("abort took %v, not prompt", elapsed)
				}
			})
		}
	}
	waitGoroutines(t, before)

	// Budget errors carry the observed and configured limits.
	db.SetBudget(Budget{MaxRows: 10})
	defer db.SetBudget(Budget{})
	_, err := db.Query(governQuery)
	var be *govern.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *govern.BudgetError", err)
	}
	if be.Limit != 10 || be.Observed != 11 {
		t.Errorf("BudgetError = limit %d observed %d, want 10/11", be.Limit, be.Observed)
	}
}

// TestCancelAllStrategies: a context canceled before the query starts
// aborts every strategy with ErrCanceled.
func TestCancelAllStrategies(t *testing.T) {
	db := governDB(t, 20, 500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, s := range allStrategies {
		if _, err := db.QueryStrategyContext(ctx, governQuery, s); !errors.Is(err, ErrCanceled) {
			t.Errorf("%v: err = %v, want ErrCanceled", s, err)
		}
	}
}

// TestMidFlightCancelAllStrategies: cancellation arriving while the
// query is running aborts it promptly. A 10s delay fault at exec.scan
// pins every strategy mid-flight deterministically; the query must
// return long before the delay would expire.
func TestMidFlightCancelAllStrategies(t *testing.T) {
	db := governDB(t, 20, 500)
	db.eng.SetFaultInjector(govern.NewInjector(map[string]string{"exec.scan": "delay:10s"}))
	defer db.eng.SetFaultInjector(nil)
	before := runtime.NumGoroutine()
	for _, s := range allStrategies {
		t.Run(fmt.Sprint(s), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				time.Sleep(5 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, err := db.QueryStrategyContext(ctx, governQuery, s)
			elapsed := time.Since(start)
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if elapsed > 2*time.Second {
				t.Errorf("cancel took %v, not prompt", elapsed)
			}
		})
	}
	waitGoroutines(t, before)
}

// TestInjectedPanicAllStrategies: an operator panic is recovered at
// the engine boundary and surfaces as a typed ErrInternal — under
// every strategy — and the database stays usable afterwards.
func TestInjectedPanicAllStrategies(t *testing.T) {
	db := governDB(t, 20, 500)
	db.eng.SetFaultInjector(govern.NewInjector(map[string]string{"exec.scan": "panic"}))
	for _, s := range allStrategies {
		_, err := db.QueryStrategy(governQuery, s)
		if !errors.Is(err, ErrInternal) {
			t.Errorf("%v: err = %v, want ErrInternal", s, err)
		}
		var ie *govern.InternalError
		if !errors.As(err, &ie) {
			t.Errorf("%v: err = %v, want *govern.InternalError", s, err)
		} else if ie.Node == "" || len(ie.Stack) == 0 {
			t.Errorf("%v: InternalError missing node (%q) or stack", s, ie.Node)
		}
	}
	db.eng.SetFaultInjector(nil)
	if _, err := db.Query(governQuery); err != nil {
		t.Fatalf("database unusable after recovered panics: %v", err)
	}
}

// TestWorkerPanicIsolated: a panic on a parallel GMDJ worker goroutine
// is recovered on that goroutine (the engine-boundary recover cannot
// shield it), stops the pool, and surfaces as ErrInternal without
// leaking the other workers.
func TestWorkerPanicIsolated(t *testing.T) {
	db := governDB(t, parallelHours, 4000)
	db.SetParallelism(4)
	db.eng.SetFaultInjector(govern.NewInjector(map[string]string{"gmdj.worker": "panic"}))
	defer db.eng.SetFaultInjector(nil)
	before := runtime.NumGoroutine()
	for _, s := range []Strategy{GMDJ, GMDJOpt} {
		if _, err := db.QueryStrategy(governQuery, s); !errors.Is(err, ErrInternal) {
			t.Errorf("%v: err = %v, want ErrInternal", s, err)
		}
	}
	waitGoroutines(t, before)
}

// TestFaultSitesPerStrategy: every named injection site in the plan a
// strategy actually runs aborts the query with ErrInjected, proving
// the error path is wired through each operator.
func TestFaultSitesPerStrategy(t *testing.T) {
	cases := []struct {
		site       string
		strategies []Strategy
	}{
		{"exec.scan", allStrategies},
		{"exec.restrict", allStrategies},
		{"exec.project", allStrategies},
		{"exec.subquery", []Strategy{Native}},
		{"exec.join", []Strategy{Unnest}},
		{"exec.groupby", []Strategy{Unnest}},
		{"gmdj.compile", []Strategy{GMDJ, GMDJOpt}},
		{"gmdj.emit", []Strategy{GMDJ, GMDJOpt}},
		{"gmdj.worker", []Strategy{GMDJ, GMDJOpt}},
	}
	for _, c := range cases {
		// Only a base that relation.FanOut shards reaches the worker pool.
		hours := 20
		if c.site == "gmdj.worker" {
			hours = parallelHours
		}
		db := governDB(t, hours, 500)
		db.SetParallelism(2)
		db.eng.SetFaultInjector(govern.NewInjector(map[string]string{c.site: "error"}))
		for _, s := range c.strategies {
			t.Run(fmt.Sprintf("%s/%v", c.site, s), func(t *testing.T) {
				_, err := db.QueryStrategy(governQuery, s)
				if !errors.Is(err, govern.ErrInjected) {
					t.Fatalf("err = %v, want ErrInjected", err)
				}
			})
		}
	}
}

// TestUngovernedQueriesUnaffected: with no budget and a background
// context, queries take the ungoverned fast path and still agree
// across strategies.
func TestUngovernedQueriesUnaffected(t *testing.T) {
	db := governDB(t, 20, 500)
	want := -1
	for _, s := range allStrategies {
		res, err := db.QueryStrategy(governQuery, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if want < 0 {
			want = res.Len()
		} else if res.Len() != want {
			t.Errorf("%v: %d rows, other strategies returned %d", s, res.Len(), want)
		}
	}
	if want != 20 {
		t.Errorf("governQuery returned %d rows, want 20", want)
	}
}
