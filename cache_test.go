package gmdj

import (
	"strings"
	"testing"
	"time"
)

func TestPlanCacheHitMiss(t *testing.T) {
	db := usersDB(t)
	q := `SELECT name FROM users WHERE score > 15`
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	s1 := db.PlanCacheStats()
	if s1.Misses == 0 || s1.Entries == 0 {
		t.Fatalf("first query should miss and populate: %+v", s1)
	}
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	s2 := db.PlanCacheStats()
	if s2.Hits != s1.Hits+1 {
		t.Fatalf("second query should hit: before %+v after %+v", s1, s2)
	}
	// Same shape, different constant: the parameterized template is
	// shared, so this is a hit too — and returns the right rows.
	res, err := db.Query(`SELECT name FROM users WHERE score > 25`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][0] != "cat" {
		t.Fatalf("got %v, want [[cat]]", res.Rows)
	}
	s3 := db.PlanCacheStats()
	if s3.Hits != s2.Hits+1 {
		t.Fatalf("constant-only variant should share the template: %+v -> %+v", s2, s3)
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	db := Open(WithPlanCache(-1))
	db.MustCreateTable("t", Col("x", Int))
	db.MustInsert("t", []any{int64(1)})
	if _, err := db.Query(`SELECT x FROM t`); err != nil {
		t.Fatal(err)
	}
	if s := db.PlanCacheStats(); s.Hits+s.Misses != 0 {
		t.Fatalf("disabled cache saw traffic: %+v", s)
	}
}

func TestExplainPlanCachedLine(t *testing.T) {
	db := usersDB(t)
	q := `SELECT name FROM users WHERE score > 15`
	out, err := db.Explain(q, GMDJOpt)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "plan: cached") {
		t.Fatalf("cold explain claims cached:\n%s", out)
	}
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	// Any constant-compatible variant of the text now reports cached.
	out, err = db.Explain(`SELECT name FROM users WHERE score > 99`, GMDJOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "plan: cached") {
		t.Fatalf("warm explain lacks plan: cached line:\n%s", out)
	}
}

func TestOpenOptions(t *testing.T) {
	db := Open(
		WithParallelism(2),
		WithBudget(Budget{Timeout: time.Minute}),
		WithUseIndexes(false),
		WithMemoizeSubqueries(true),
		WithResultCache(1<<20),
	)
	db.MustCreateTable("t", Col("x", Int))
	db.MustCreateTable("u", Col("y", Int))
	db.MustInsert("t", []any{int64(7)})
	db.MustInsert("u", []any{int64(7)})
	res, err := db.Query(`SELECT x FROM t WHERE x IN (SELECT y FROM u)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("got %d rows", res.Len())
	}
}

func TestResultCacheSubqueryMemo(t *testing.T) {
	db := Open(WithResultCache(0))
	db.MustCreateTable("flows", Col("src", String), Col("bytes", Int))
	db.MustCreateTable("users", Col("name", String), Col("ip", String))
	db.MustInsert("users", []any{"ann", "10.0.0.1"}, []any{"bob", "10.0.0.2"})
	db.MustInsert("flows", []any{"10.0.0.1", int64(100)}, []any{"10.0.0.2", int64(9000)})
	// The subquery reads a derived table, the source kind the memo
	// shares across queries; Native evaluation is what reads it.
	q := `SELECT u.name FROM users u WHERE EXISTS (
		SELECT * FROM (SELECT src FROM flows WHERE bytes > 1000) big WHERE big.src = u.ip)`
	r1, err := db.QueryStrategy(q, Native)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := db.QueryStrategy(q, Native)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Len() != 1 || r2.Len() != 1 || r2.Rows[0][0] != "bob" {
		t.Fatalf("r1=%v r2=%v", r1.Rows, r2.Rows)
	}
	if s := db.ResultCacheStats(); s.Hits == 0 {
		t.Fatalf("replay produced no result-cache hits: %+v", s)
	}
}
