package gmdj

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/obs"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

// statsWorkload builds a base large enough for relation.FanOut to
// shard (parallelBase rows) and a detail relation of detailRows rows,
// under one indexed and one fallback condition. The fallback
// condition's base-only conjunct keeps its per-row base scan to a
// tenth of the base.
func statsWorkload(detailRows int) (*relation.Relation, *relation.Relation, []algebra.GMDJCond) {
	base := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt},
	))
	for i := int64(0); i < parallelBase; i++ {
		base.Append(relation.Tuple{value.Int(i % 50)})
	}
	detail := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "R", Name: "k", Type: value.KindInt},
		relation.Column{Qualifier: "R", Name: "v", Type: value.KindInt},
	))
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < detailRows; i++ {
		detail.Append(relation.Tuple{value.Int(rng.Int63n(60)), value.Int(rng.Int63n(1000))})
	}
	conds := []algebra.GMDJCond{
		{
			Theta: expr.Eq(expr.C("B.k"), expr.C("R.k")),
			Aggs:  []agg.Spec{{Func: agg.CountStar, As: "cnt"}},
		},
		{
			// Bindingless condition exercises the fallback-scan counters.
			Theta: expr.NewAnd(
				expr.NewCmp(value.LT, expr.C("B.k"), expr.C("R.v")),
				expr.NewCmp(value.LT, expr.C("B.k"), expr.IntLit(5))),
			Aggs: []agg.Spec{{Func: agg.Sum, Arg: expr.C("R.v"), As: "s"}},
		},
	}
	return base, detail, conds
}

// TestStatsParitySerialParallel pins the counter contract of the
// base-sharded scan against serial evaluation, with and without tuple
// completion (per-worker locals merged at drain — no lost or
// double-counted updates). At every degree, DetailRows +
// ShortCircuitRows is |detail| and DetailRows equals the serial scan's:
// the scan reports how far it got, its longest worker's visits.
// Matches and completions agree exactly (every (base, detail, θ)
// triple is decided by one worker on the same detail prefix as in the
// serial scan), WorkerRows holds the per-worker visits, and probes
// land between the serial count (fallback visits split perfectly) and
// workers× it (shared-index buckets are walked by every worker). Run
// under -race this also proves the merge is race-free: workers write
// only their own state's counters, and WorkerRows is recorded after
// the pool drains.
func TestStatsParitySerialParallel(t *testing.T) {
	base, detail, conds := statsWorkload(1000)
	notExists := &algebra.CompletionInfo{
		Atoms: []algebra.CompletionAtom{{Cond: 0, Kind: algebra.AtomZero}},
		Tree:  &algebra.BoolTree{Op: algebra.BoolLeaf, Leaf: 0},
	}
	for _, comp := range []*algebra.CompletionInfo{nil, notExists} {
		var serial Stats
		outS, err := Evaluate(base, detail, conds, Options{Completion: comp, Stats: &serial})
		if err != nil {
			t.Fatal(err)
		}
		if serial.WorkerRows != nil {
			t.Fatalf("serial WorkerRows = %v, want nil", serial.WorkerRows)
		}
		if comp != nil && serial.ShortCircuitRows == 0 {
			t.Fatal("completion run did not short-circuit; the workload no longer tests it")
		}
		for _, workers := range []int{1, 2, 4, 8} {
			var par Stats
			// A live tracer makes the -race run cover concurrent span
			// recording from the worker goroutines too.
			outP, err := Evaluate(base, detail, conds, Options{
				Completion: comp, Stats: &par, Workers: workers, Tracer: obs.NewTracer(1 << 10),
			})
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("completion=%v workers=%d", comp != nil, workers)
			if outP.String() != outS.String() {
				t.Fatalf("%s: output differs from serial:\n%s", name, outS.Diff(outP))
			}
			if got := par.DetailRows + par.ShortCircuitRows; got != int64(detail.Len()) {
				t.Fatalf("%s: DetailRows(%d) + ShortCircuitRows(%d) = %d, want |detail| = %d",
					name, par.DetailRows, par.ShortCircuitRows, got, detail.Len())
			}
			if par.DetailRows != serial.DetailRows || par.Matches != serial.Matches ||
				par.Completed != serial.Completed {
				t.Fatalf("%s: counters diverge:\nserial   %+v\nparallel %+v", name, serial, par)
			}
			effective := int64(1)
			if workers > 1 {
				effective = int64(len(par.WorkerRows))
				if effective < 2 {
					t.Fatalf("%s: WorkerRows = %v, want at least two workers", name, par.WorkerRows)
				}
				var longest int64
				for _, r := range par.WorkerRows {
					longest = max(longest, r)
				}
				if longest != par.DetailRows {
					t.Fatalf("%s: longest worker scan %d, DetailRows %d", name, longest, par.DetailRows)
				}
			}
			if par.Probes < serial.Probes || par.Probes > serial.Probes*effective {
				t.Fatalf("%s: Probes = %d, want within [%d, %d]",
					name, par.Probes, serial.Probes, serial.Probes*effective)
			}
		}
	}
}

// TestStatsMerge covers the Merge arithmetic, including WorkerRows
// concatenation and nil tolerance.
func TestStatsMerge(t *testing.T) {
	dst := Stats{DetailRows: 1, Probes: 2, Matches: 3, Completed: 4, ShortCircuitRows: 5, FallbackConds: 1, WorkerRows: []int64{7}}
	src := Stats{DetailRows: 10, Probes: 20, Matches: 30, Completed: 40, ShortCircuitRows: 50, FallbackConds: 2, WorkerRows: []int64{8, 9}}
	dst.Merge(&src)
	want := Stats{DetailRows: 11, Probes: 22, Matches: 33, Completed: 44, ShortCircuitRows: 55, FallbackConds: 3, WorkerRows: []int64{7, 8, 9}}
	if dst.DetailRows != want.DetailRows || dst.Probes != want.Probes || dst.Matches != want.Matches ||
		dst.Completed != want.Completed || dst.ShortCircuitRows != want.ShortCircuitRows ||
		dst.FallbackConds != want.FallbackConds || len(dst.WorkerRows) != 3 {
		t.Fatalf("Merge = %+v, want %+v", dst, want)
	}
	var nilStats *Stats
	nilStats.Merge(&src) // must not panic
	dst.Merge(nil)       // must not panic
}

// TestShortCircuitStopsScan verifies the strongest §4.2 outcome: when
// completion decides every base tuple, the remaining detail rows are
// skipped and accounted as ShortCircuitRows.
func TestShortCircuitStopsScan(t *testing.T) {
	base := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt},
	))
	for i := int64(0); i < 10; i++ {
		base.Append(relation.Tuple{value.Int(i)})
	}
	detail := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "R", Name: "k", Type: value.KindInt},
	))
	// The first 10 rows match every base key once; the next 990 are
	// dead work once all base tuples are decided.
	for i := int64(0); i < 1000; i++ {
		detail.Append(relation.Tuple{value.Int(i % 10)})
	}
	conds := []algebra.GMDJCond{{
		Theta: expr.Eq(expr.C("B.k"), expr.C("R.k")),
		Aggs:  []agg.Spec{{Func: agg.CountStar, As: "cnt"}},
	}}
	comp := &algebra.CompletionInfo{
		// NOT EXISTS shape: one match decides the base tuple (dropped).
		Atoms: []algebra.CompletionAtom{{Cond: 0, Kind: algebra.AtomZero}},
		Tree:  &algebra.BoolTree{Op: algebra.BoolLeaf, Leaf: 0},
	}
	var stats Stats
	out, err := Evaluate(base, detail, conds, Options{Completion: comp, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("rows = %d, want 0 (every base tuple dropped)", out.Len())
	}
	if stats.Completed != 10 {
		t.Fatalf("Completed = %d, want 10", stats.Completed)
	}
	if stats.ShortCircuitRows == 0 {
		t.Fatal("ShortCircuitRows = 0, want > 0 (scan must stop early)")
	}
	if stats.DetailRows+stats.ShortCircuitRows != 1000 {
		t.Fatalf("DetailRows(%d) + ShortCircuitRows(%d) != 1000", stats.DetailRows, stats.ShortCircuitRows)
	}
	// Serial evaluation stops at exactly the deciding row.
	if stats.DetailRows != 10 {
		t.Fatalf("DetailRows = %d, want 10", stats.DetailRows)
	}
}
