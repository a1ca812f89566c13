package gmdj

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// invalidationQueries exercise each cache layer: q1 the parameterized
// plan cache, q2 the detail table's per-version key-hash memo, q3 the
// uncorrelated subquery-source memo.
var invalidationQueries = []string{
	`SELECT name FROM users WHERE score > 15`,
	`SELECT u.name FROM users u WHERE EXISTS (
		SELECT * FROM flows f WHERE f.src = u.ip AND f.bytes > 1000)`,
	`SELECT name FROM users WHERE score > (SELECT AVG(b) FROM (SELECT bytes AS b FROM flows WHERE bytes < 50) small)`,
}

func invalidationDB(t *testing.T) *DB {
	t.Helper()
	db := Open(WithResultCache(0))
	db.MustCreateTable("users",
		Col("name", String), Col("ip", String), Col("score", Int))
	db.MustCreateTable("flows", Col("src", String), Col("bytes", Int))
	db.MustInsert("users",
		[]any{"ann", "10.0.0.1", int64(10)},
		[]any{"bob", "10.0.0.2", int64(20)},
		[]any{"cat", "10.0.0.1", int64(30)},
	)
	db.MustInsert("flows",
		[]any{"10.0.0.1", int64(10)},
		[]any{"10.0.0.2", int64(9000)},
	)
	if err := db.BuildHashIndex("flows", "src"); err != nil {
		t.Fatal(err)
	}
	return db
}

func rowsKey(t *testing.T, res *Result) string {
	t.Helper()
	lines := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		lines[i] = fmt.Sprint(r...)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestCacheInvalidation is the staleness proof for every cache layer:
// after each kind of write to a referenced table, a warmed database
// (plan cache + result memo populated by two prior runs) must answer
// exactly like a cold database built directly in the post-write state.
func TestCacheInvalidation(t *testing.T) {
	mutations := []struct {
		name  string
		apply func(t *testing.T, db *DB)
	}{
		{"insert-api", func(t *testing.T, db *DB) {
			db.MustInsert("flows", []any{"10.0.0.1", int64(5000)})
		}},
		{"insert-sql", func(t *testing.T, db *DB) {
			if _, err := db.Exec(`INSERT INTO flows VALUES ('10.0.0.1', 5000)`); err != nil {
				t.Fatal(err)
			}
		}},
		{"load-csv", func(t *testing.T, db *DB) {
			csv := "src,bytes\n10.0.0.1,5000\n"
			if err := db.LoadCSV("flows", strings.NewReader(csv)); err != nil {
				t.Fatal(err)
			}
		}},
		{"drop-indexes", func(t *testing.T, db *DB) {
			if err := db.DropIndexes("flows"); err != nil {
				t.Fatal(err)
			}
		}},
		{"build-index", func(t *testing.T, db *DB) {
			if err := db.BuildHashIndex("flows", "bytes"); err != nil {
				t.Fatal(err)
			}
		}},
		{"ddl-drop-recreate", func(t *testing.T, db *DB) {
			if _, err := db.Exec(`DROP TABLE flows`); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Exec(`CREATE TABLE flows (src STRING, bytes INT)`); err != nil {
				t.Fatal(err)
			}
			db.MustInsert("flows", []any{"10.0.0.1", int64(5000)})
		}},
	}
	for _, mut := range mutations {
		for _, s := range []Strategy{Native, GMDJOpt} {
			t.Run(mut.name+"/"+s.String(), func(t *testing.T) {
				warm := invalidationDB(t)
				// Warm every cache: two runs so the second is served from
				// the plan cache and the memo.
				for i := 0; i < 2; i++ {
					for _, q := range invalidationQueries {
						if _, err := warm.QueryStrategy(q, s); err != nil {
							t.Fatalf("warmup %q: %v", q, err)
						}
					}
				}
				mut.apply(t, warm)

				cold := invalidationDB(t)
				mut.apply(t, cold)

				for _, q := range invalidationQueries {
					got, err := warm.QueryStrategy(q, s)
					if err != nil {
						t.Fatalf("warm %q: %v", q, err)
					}
					want, err := cold.QueryStrategy(q, s)
					if err != nil {
						t.Fatalf("cold %q: %v", q, err)
					}
					if rowsKey(t, got) != rowsKey(t, want) {
						t.Errorf("stale answer after %s for %q:\nwarm: %v\ncold: %v",
							mut.name, q, got.Rows, want.Rows)
					}
				}
			})
		}
	}
}

// TestCacheInvalidationCounters pins the mechanism, not just the
// outcome: a write bumps the schema epoch, so the next lookup of a
// previously cached plan records an invalidation, and the result
// memo's epoch-tagged keys miss rather than hit. Native evaluation of
// q3 is what reads its subquery source through the memo.
func TestCacheInvalidationCounters(t *testing.T) {
	db := invalidationDB(t)
	q := invalidationQueries[2]
	for i := 0; i < 2; i++ {
		if _, err := db.QueryStrategy(q, Native); err != nil {
			t.Fatal(err)
		}
	}
	planBefore := db.PlanCacheStats()
	memoBefore := db.ResultCacheStats()
	if planBefore.Hits == 0 || memoBefore.Hits == 0 {
		t.Fatalf("warmup did not hit: plan %+v memo %+v", planBefore, memoBefore)
	}
	db.MustInsert("flows", []any{"10.0.0.3", int64(1)})
	if _, err := db.QueryStrategy(q, Native); err != nil {
		t.Fatal(err)
	}
	planAfter := db.PlanCacheStats()
	memoAfter := db.ResultCacheStats()
	if planAfter.Invalidations != planBefore.Invalidations+1 {
		t.Errorf("plan invalidations %d -> %d, want +1", planBefore.Invalidations, planAfter.Invalidations)
	}
	if memoAfter.Hits != memoBefore.Hits {
		t.Errorf("memo served a stale hit after write: %+v -> %+v", memoBefore, memoAfter)
	}
	if memoAfter.Misses == memoBefore.Misses {
		t.Errorf("memo should have missed on new epoch keys: %+v -> %+v", memoBefore, memoAfter)
	}
}

// TestWritePathsMaintainIndexes: every write path keeps the written
// table's hash and sorted indexes current, so Native, which probes
// them, answers like GMDJOpt, which scans the rows.
func TestWritePathsMaintainIndexes(t *testing.T) {
	writes := []struct {
		name  string
		apply func(db *DB) error
	}{
		{"insert-api", func(db *DB) error { return db.Insert("ord", []any{int64(2), int64(7)}) }},
		{"insert-sql", func(db *DB) error {
			_, err := db.Exec(`INSERT INTO ord VALUES (2, 7)`)
			return err
		}},
		{"load-csv", func(db *DB) error { return db.LoadCSV("ord", strings.NewReader("ck,v\n2,7\n")) }},
	}
	queries := []string{
		// Native probes the hash index on ord.ck.
		`SELECT c.k FROM cust c WHERE EXISTS (SELECT * FROM ord o WHERE o.ck = c.k)`,
		// Native range-scans the sorted index on ord.v.
		`SELECT c.k FROM cust c WHERE EXISTS (SELECT * FROM ord o WHERE o.v > c.k)`,
	}
	for _, w := range writes {
		t.Run(w.name, func(t *testing.T) {
			db := Open()
			db.MustCreateTable("cust", Col("k", Int))
			db.MustCreateTable("ord", Col("ck", Int), Col("v", Int))
			db.MustInsert("cust", []any{int64(1)}, []any{int64(2)}, []any{int64(3)})
			db.MustInsert("ord", []any{int64(1), int64(1)})
			if err := db.BuildHashIndex("ord", "ck"); err != nil {
				t.Fatal(err)
			}
			if err := db.BuildSortedIndex("ord", "v"); err != nil {
				t.Fatal(err)
			}
			if err := w.apply(db); err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				native, err := db.QueryStrategy(q, Native)
				if err != nil {
					t.Fatal(err)
				}
				opt, err := db.QueryStrategy(q, GMDJOpt)
				if err != nil {
					t.Fatal(err)
				}
				if rowsKey(t, native) != rowsKey(t, opt) {
					t.Errorf("%q after %s:\nnative:   %v\ngmdj-opt: %v", q, w.name, native.Rows, opt.Rows)
				}
			}
		})
	}
}
