// Package gmdj is an embeddable in-memory OLAP query engine whose
// subquery processor implements Akinde & Böhlen, "Efficient Computation
// of Subqueries in Complex OLAP" (ICDE 2003): nested query expressions
// are translated into an algebra extended with the GMDJ
// (generalized multi-dimensional join) operator and evaluated in a
// bounded number of scans of the detail relations, with the paper's
// coalescing and tuple-completion optimizations applied on top.
//
// The package is a thin, stable facade over the engine internals:
//
//	db := gmdj.Open()
//	db.MustCreateTable("flows",
//		gmdj.Col("src", gmdj.String), gmdj.Col("bytes", gmdj.Int))
//	db.MustInsert("flows", []any{"10.0.0.1", int64(1200)})
//	res, err := db.Query(`SELECT src FROM flows WHERE bytes > 1000`)
//
// Queries accept the subquery constructs the paper studies — EXISTS,
// NOT EXISTS, IN, NOT IN, comparison against scalar and aggregate
// subqueries, and quantified ANY/SOME/ALL — and can be executed under
// any of four strategies (see Strategy) for comparison.
package gmdj

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/engine"
	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/obs"
	"github.com/olaplab/gmdj/internal/plancache"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/sql"
	"github.com/olaplab/gmdj/internal/storage"
	"github.com/olaplab/gmdj/internal/value"
)

// Type is a column type.
type Type uint8

const (
	// Int is a 64-bit signed integer column.
	Int Type = iota
	// Float is a 64-bit float column.
	Float
	// String is a string column.
	String
	// Bool is a boolean column.
	Bool
)

func (t Type) kind() value.Kind {
	switch t {
	case Int:
		return value.KindInt
	case Float:
		return value.KindFloat
	case String:
		return value.KindString
	case Bool:
		return value.KindBool
	default:
		return value.KindNull
	}
}

// Column declares one table column.
type Column struct {
	Name string
	Type Type
}

// Col is shorthand for a Column literal.
func Col(name string, t Type) Column { return Column{Name: name, Type: t} }

// Strategy selects how subqueries are evaluated. The default for
// Query is GMDJOpt, the paper's optimized translation.
type Strategy = engine.Strategy

// Evaluation strategies.
const (
	// Native is tuple-iteration semantics with index acceleration.
	Native = engine.Native
	// Unnest is classical join/outer-join unnesting.
	Unnest = engine.Unnest
	// GMDJ is the basic SubqueryToGMDJ translation (Theorem 3.5).
	GMDJ = engine.GMDJ
	// GMDJOpt adds coalescing and tuple completion (§4).
	GMDJOpt = engine.GMDJOpt
	// Auto lets the built-in cost model pick among the other four.
	Auto = engine.Auto
)

// Budget bounds one query evaluation: wall-clock timeout, materialized
// rows, and approximate materialized bytes. The zero Budget is
// unlimited. Apply with DB.SetBudget.
type Budget = engine.Budget

// Query-governance errors. A query aborted by its budget, its caller,
// or an internal fault returns an error matching exactly one of these
// with errors.Is; see the "Query governance & failure semantics"
// section of the README for the taxonomy.
var (
	// ErrCanceled: the caller canceled the query's context.
	ErrCanceled = govern.ErrCanceled
	// ErrTimeout: the query exceeded Budget.Timeout (or the caller
	// context's deadline).
	ErrTimeout = govern.ErrTimeout
	// ErrRowBudget: the query materialized more than Budget.MaxRows.
	ErrRowBudget = govern.ErrRowBudget
	// ErrMemBudget: the query exceeded Budget.MaxMemBytes.
	ErrMemBudget = govern.ErrMemBudget
	// ErrInternal: an operator panicked; the panic was recovered at the
	// engine boundary and the process survived.
	ErrInternal = govern.ErrInternal
)

// DB is an in-memory database: a catalog of tables plus the query
// engine. A DB is not safe for concurrent mutation; concurrent
// read-only queries are safe.
type DB struct {
	cat *storage.Catalog
	eng *engine.Engine
}

// Open creates an empty database, configured by options. With no
// options the database has the parameterized plan cache enabled
// (16 MiB LRU; see WithPlanCache), secondary-index use on,
// morsel-driven parallelism at runtime.GOMAXPROCS(0) (see
// WithParallelism), no budget, and no cross-query result memo.
func Open(opts ...Option) *DB {
	return newDB(storage.NewCatalog(), opts)
}

// newDB is the shared constructor behind Open and the sample openers:
// defaults first, then the caller's options in order.
func newDB(cat *storage.Catalog, opts []Option) *DB {
	db := &DB{cat: cat, eng: engine.New(cat)}
	db.eng.SetPlanCache(plancache.New(0))
	for _, opt := range opts {
		opt(db)
	}
	return db
}

// SetParallelism sets the morsel-driven execution degree (0 or 1
// means serial; see WithParallelism for the full contract).
//
// Deprecated: pass WithParallelism to Open.
func (db *DB) SetParallelism(workers int) { db.eng.SetGMDJWorkers(workers) }

// SetBudget bounds every subsequent query on this DB. Exceeding a
// bound aborts that query (typed error; see ErrTimeout, ErrRowBudget,
// ErrMemBudget) without affecting the DB or other queries. Not safe to
// call concurrently with running queries.
//
// Deprecated: pass WithBudget to Open.
func (db *DB) SetBudget(b Budget) { db.eng.SetBudget(b) }

// SetUseIndexes toggles secondary-index use by the Native strategy.
// GMDJ evaluation never depends on it — one of the paper's points.
//
// Deprecated: pass WithUseIndexes to Open.
func (db *DB) SetUseIndexes(on bool) { db.eng.SetUseIndexes(on) }

// SetMemoizeSubqueries toggles invariant reuse (Rao & Ross) in the
// Native strategy: subquery outcomes are cached per distinct outer
// correlation binding, so duplicate bindings share one evaluation.
//
// Deprecated: pass WithMemoizeSubqueries to Open.
func (db *DB) SetMemoizeSubqueries(on bool) { db.eng.SetMemoizeSubqueries(on) }

// CreateTable registers an empty table. Registering a name that
// already exists fails with an error matching ErrTableExists.
func (db *DB) CreateTable(name string, cols ...Column) error {
	if name == "" {
		return fmt.Errorf("gmdj: empty table name")
	}
	if _, err := db.cat.Table(name); err == nil {
		return fmt.Errorf("gmdj: %w: %q", ErrTableExists, name)
	}
	if len(cols) == 0 {
		return fmt.Errorf("gmdj: table %q needs at least one column", name)
	}
	rcols := make([]relation.Column, len(cols))
	seen := map[string]bool{}
	for i, c := range cols {
		if c.Name == "" {
			return fmt.Errorf("gmdj: table %q column %d has no name", name, i)
		}
		if seen[c.Name] {
			return fmt.Errorf("gmdj: table %q has duplicate column %q", name, c.Name)
		}
		seen[c.Name] = true
		rcols[i] = relation.Column{Qualifier: name, Name: c.Name, Type: c.Type.kind()}
	}
	db.cat.Register(storage.NewTable(name, relation.New(relation.NewSchema(rcols...))))
	return nil
}

// MustCreateTable is CreateTable panicking on error (setup code).
func (db *DB) MustCreateTable(name string, cols ...Column) {
	if err := db.CreateTable(name, cols...); err != nil {
		panic(err)
	}
}

// Insert appends rows to a table. Row values may be int, int64,
// float64, string, bool, or nil (NULL); each row must match the table
// width and column types. Every row is checked before any is stored,
// so a failed Insert changes nothing.
func (db *DB) Insert(table string, rows ...[]any) error {
	t, err := db.cat.Table(table)
	if err != nil {
		return err
	}
	tups := make([]relation.Tuple, len(rows))
	for ri, row := range rows {
		if len(row) != t.Rel.Schema.Len() {
			return fmt.Errorf("gmdj: row %d has %d values, table %q has %d columns",
				ri, len(row), table, t.Rel.Schema.Len())
		}
		tup := make(relation.Tuple, len(row))
		for i, v := range row {
			cv, err := toValue(v)
			if err != nil {
				return fmt.Errorf("gmdj: row %d column %q: %w", ri, t.Rel.Schema.Columns[i].Name, err)
			}
			if !cv.IsNull() {
				want := t.Rel.Schema.Columns[i].Type
				if want != value.KindNull && cv.Kind() != want &&
					!(want == value.KindFloat && cv.Kind() == value.KindInt) {
					return fmt.Errorf("gmdj: row %d column %q: cannot store %v into %v",
						ri, t.Rel.Schema.Columns[i].Name, cv.Kind(), want)
				}
				if want == value.KindFloat && cv.Kind() == value.KindInt {
					cv = value.Float(float64(cv.AsInt()))
				}
			}
			tup[i] = cv
		}
		tups[ri] = tup
	}
	t.Append(tups...)
	return nil
}

// MustInsert is Insert panicking on error (setup code).
func (db *DB) MustInsert(table string, rows ...[]any) {
	if err := db.Insert(table, rows...); err != nil {
		panic(err)
	}
}

func toValue(v any) (value.Value, error) {
	switch x := v.(type) {
	case nil:
		return value.Null, nil
	case int:
		return value.Int(int64(x)), nil
	case int64:
		return value.Int(x), nil
	case float64:
		return value.Float(x), nil
	case string:
		return value.Str(x), nil
	case bool:
		return value.Bool(x), nil
	default:
		return value.Null, fmt.Errorf("unsupported Go value of type %T", v)
	}
}

func fromValue(v value.Value) any {
	switch v.Kind() {
	case value.KindNull:
		return nil
	case value.KindInt:
		return v.AsInt()
	case value.KindFloat:
		return v.AsFloat()
	case value.KindString:
		return v.AsString()
	case value.KindBool:
		return v.AsBool()
	default:
		return nil
	}
}

// BuildHashIndex creates an equality index on table.col (used by the
// Native strategy).
func (db *DB) BuildHashIndex(table, col string) error {
	t, err := db.cat.Table(table)
	if err != nil {
		return err
	}
	return t.BuildHashIndex(col)
}

// BuildSortedIndex creates a range index on table.col.
func (db *DB) BuildSortedIndex(table, col string) error {
	t, err := db.cat.Table(table)
	if err != nil {
		return err
	}
	return t.BuildSortedIndex(col)
}

// DropIndexes removes all secondary indexes from a table.
func (db *DB) DropIndexes(table string) error {
	t, err := db.cat.Table(table)
	if err != nil {
		return err
	}
	t.DropIndexes()
	return nil
}

// Tables lists registered table names.
func (db *DB) Tables() []string { return db.cat.Names() }

// Result is a materialized query result.
type Result struct {
	// Columns are the output column names.
	Columns []string
	// Rows hold one []any per result row; cell types mirror Insert's.
	Rows [][]any
}

// Len returns the number of rows.
func (r *Result) Len() int { return len(r.Rows) }

// Query parses and runs a SQL query under the GMDJOpt strategy.
func (db *DB) Query(query string) (*Result, error) {
	return db.QueryStrategy(query, GMDJOpt)
}

// QueryContext is Query honoring the caller's context: canceling ctx
// aborts the evaluation within a few hundred rows of any operator loop
// and returns an error matching ErrCanceled (or ErrTimeout when the
// context's deadline expired).
func (db *DB) QueryContext(ctx context.Context, query string) (*Result, error) {
	return db.QueryStrategyContext(ctx, query, GMDJOpt)
}

// QueryStrategy parses and runs a SQL query under an explicit
// strategy. All strategies return the same bag of rows; they differ
// only in evaluation cost.
func (db *DB) QueryStrategy(query string, s Strategy) (*Result, error) {
	return db.QueryStrategyContext(context.Background(), query, s)
}

// QueryStrategyContext is QueryStrategy honoring the caller's context.
// When the plan cache is enabled (the Open default), the query's
// literals are lifted into parameters and the resulting template is
// compiled at most once per (normalized text, strategy); replays bind
// the literals back into the cached physical plan and skip parsing,
// resolution, and strategy rewriting entirely.
func (db *DB) QueryStrategyContext(ctx context.Context, query string, s Strategy) (*Result, error) {
	// With tracing on, the compile step gets its own span annotated
	// with the plan-cache outcome (the Peek races a concurrent Put at
	// worst into a false "miss" label — telemetry only, never behavior).
	t := db.eng.Tracer()
	var planStart time.Time
	var hit bool
	if t != nil {
		planStart = time.Now()
		hit = db.planCached(query, s)
	}
	phys, err := db.physicalPlan(query, s)
	if t != nil {
		arg := "cache=miss"
		if hit {
			arg = "cache=hit"
		}
		if rid := obs.ContextRequestID(ctx); rid != "" {
			arg = "rid=" + rid + " " + arg
		}
		t.SpanArgs("plan", "plan "+s.String(), 1, planStart, time.Since(planStart), arg)
	}
	if err != nil {
		return nil, err
	}
	rel, err := db.eng.RunPlannedContext(ctx, query, phys, s)
	if err != nil {
		return nil, err
	}
	return toResult(rel), nil
}

// physicalPlan produces an executable (fully bound) physical plan for
// the query, consulting the plan cache when one is installed.
func (db *DB) physicalPlan(query string, s Strategy) (algebra.Node, error) {
	pc := db.eng.PlanCache()
	if pc == nil {
		return db.planUncached(query, s)
	}
	norm, args, explicit, err := sql.Normalize(query)
	if err != nil {
		return nil, err
	}
	if explicit {
		return nil, fmt.Errorf("gmdj: query contains placeholders; use Prepare and pass arguments: %w", ErrBadParam)
	}
	key := plancache.Key{Text: norm, Strategy: uint8(s)}
	epoch := db.cat.SchemaEpoch()
	ent, ok := pc.Get(key, epoch)
	if !ok {
		plan, perr := sql.ParseAndResolve(norm, db.eng)
		if perr != nil {
			// Safety valve: if the canonicalized text fails to compile,
			// fall back to the original, uncached. (A parse error in the
			// original surfaces with its own positions this way.)
			return db.planUncached(query, s)
		}
		phys, perr := db.eng.Plan(plan, s)
		if perr != nil {
			return nil, perr
		}
		ent = &plancache.Entry{
			Plan:        phys,
			NParams:     len(args),
			Tables:      algebra.Tables(phys),
			SchemaEpoch: epoch,
		}
		pc.Put(key, ent)
	}
	bound, berr := algebra.BindParams(ent.Plan, args)
	if berr != nil {
		// A strategy rewrite may in principle drop a lifted literal from
		// the plan; recompile the original text rather than fail.
		return db.planUncached(query, s)
	}
	return bound, nil
}

// planUncached is the pre-cache compile pipeline: parse, resolve,
// strategy-rewrite.
func (db *DB) planUncached(query string, s Strategy) (algebra.Node, error) {
	plan, err := sql.ParseAndResolve(query, db.eng)
	if err != nil {
		return nil, err
	}
	return db.eng.Plan(plan, s)
}

// Explain returns the physical plan a strategy would execute for a
// query, as an indented operator tree. When the query's plan template
// is already resident in the plan cache (a subsequent Query would skip
// compilation), the output leads with a "plan: cached" line.
func (db *DB) Explain(query string, s Strategy) (string, error) {
	plan, err := sql.ParseAndResolve(query, db.eng)
	if err != nil {
		return "", err
	}
	out, err := db.eng.Explain(plan, s)
	if err != nil {
		return "", err
	}
	if db.planCached(query, s) {
		out = "plan: cached\n" + out
	}
	return out, nil
}

// planCached reports whether Query(query) under s would hit the plan
// cache right now.
func (db *DB) planCached(query string, s Strategy) bool {
	pc := db.eng.PlanCache()
	if pc == nil {
		return false
	}
	norm, _, explicit, err := sql.Normalize(query)
	if err != nil || explicit {
		return false
	}
	return pc.Peek(plancache.Key{Text: norm, Strategy: uint8(s)}, db.cat.SchemaEpoch())
}

// ExplainAnalyze parses, runs, and renders the query's plan annotated
// with measured per-operator statistics: wall time, output rows,
// approximate bytes, and operator-specific counters (hash-index
// probes, fallback θ-scans, tuples retired by completion, per-worker
// partition rows). The query's rows are discarded; use QueryAnalyze to
// get both the result and the annotated plan from a single execution.
func (db *DB) ExplainAnalyze(query string, s Strategy) (string, error) {
	return db.ExplainAnalyzeContext(context.Background(), query, s)
}

// ExplainAnalyzeContext is ExplainAnalyze honoring the caller's
// context.
func (db *DB) ExplainAnalyzeContext(ctx context.Context, query string, s Strategy) (string, error) {
	plan, err := sql.ParseAndResolve(query, db.eng)
	if err != nil {
		return "", err
	}
	_, root, err := db.eng.RunObservedQuery(ctx, query, plan, s)
	if err != nil {
		return "", err
	}
	return engine.FormatAnalyzed(s, root), nil
}

// QueryAnalyze runs a query once and returns both its result and the
// EXPLAIN ANALYZE rendering of that same execution.
func (db *DB) QueryAnalyze(query string, s Strategy) (*Result, string, error) {
	return db.QueryAnalyzeContext(context.Background(), query, s)
}

// QueryAnalyzeContext is QueryAnalyze honoring the caller's context.
func (db *DB) QueryAnalyzeContext(ctx context.Context, query string, s Strategy) (*Result, string, error) {
	plan, err := sql.ParseAndResolve(query, db.eng)
	if err != nil {
		return nil, "", err
	}
	rel, root, err := db.eng.RunObservedQuery(ctx, query, plan, s)
	if err != nil {
		return nil, "", err
	}
	return toResult(rel), engine.FormatAnalyzed(s, root), nil
}

// EnableTracing attaches a ring-buffer span recorder to the engine:
// every subsequent query records operator open/close spans, GMDJ
// worker partitions, governance trips, and fault-injection fires.
// capacity bounds the number of retained events (oldest events are
// overwritten); capacity <= 0 selects a default of 65536. Not safe to
// call concurrently with running queries.
func (db *DB) EnableTracing(capacity int) {
	if capacity <= 0 {
		capacity = obs.DefaultTraceCapacity
	}
	db.eng.SetTracer(obs.NewTracer(capacity))
}

// WriteTrace dumps the recorded trace as Chrome trace_event JSON,
// loadable by Perfetto (https://ui.perfetto.dev) or chrome://tracing.
// Tracing must have been enabled with EnableTracing.
func (db *DB) WriteTrace(w io.Writer) error {
	t := db.eng.Tracer()
	if t == nil {
		return fmt.Errorf("gmdj: tracing not enabled (call EnableTracing first)")
	}
	return t.WriteJSON(w)
}

// Tracer returns the engine's span recorder (nil until EnableTracing).
// The serving layer records its request-scoped spans — tenant gate,
// execute, serialize — through it, so server and operator events land
// in one timeline. The returned value's concrete type is internal;
// embedders outside this module should treat it as opaque and use
// WriteTrace.
func (db *DB) Tracer() *obs.Tracer { return db.eng.Tracer() }

// Metrics returns a snapshot of the process-wide engine counters
// (queries per strategy, rows scanned, governance trips, GMDJ work).
// The same counters are published under the "gmdj" expvar map for any
// embedder that mounts net/http's /debug/vars.
func (db *DB) Metrics() map[string]int64 { return obs.MetricsSnapshot() }

// ObsConfig configures workload-level observability
// (EnableObservability).
type ObsConfig struct {
	// SlowQueryThreshold admits a query into the slow-query log when
	// its wall time meets or exceeds it. 0 logs every query.
	SlowQueryThreshold time.Duration
	// SlowLogCapacity bounds slow-log retention (a ring buffer; oldest
	// records are overwritten). <= 0 selects a default of 256.
	SlowLogCapacity int
}

// EnableObservability attaches a workload observer to the engine:
// every subsequent query is registered in a live in-flight registry
// while it runs (with advancing row/byte counters), sampled into
// per-strategy latency and row-count histograms and per-operator-kind
// histograms when it finishes, and recorded — SQL text, strategy,
// outcome, and the full EXPLAIN ANALYZE statistics tree — into the
// slow-query log when it crosses cfg.SlowQueryThreshold. Serve the
// surfaces over HTTP with ObsHTTPHandler, or read them directly with
// FormatSlowLog, WriteSlowLog, FormatHistograms, and
// FormatLiveQueries. Not safe to call concurrently with running
// queries.
func (db *DB) EnableObservability(cfg ObsConfig) {
	db.eng.SetObserver(obs.NewObserver(obs.ObserverConfig{
		SlowQueryThreshold: cfg.SlowQueryThreshold,
		SlowLogCapacity:    cfg.SlowLogCapacity,
	}))
}

// ObsHTTPHandler returns the live observability dashboard: mount it at
// /debug/olap/ to serve /debug/olap/queries (in-flight queries with
// live row counters), /debug/olap/hist (latency and row-count
// histograms), and /debug/olap/slowlog — JSON by default, plain text
// with ?format=text. Before EnableObservability the handler answers
// 503.
func (db *DB) ObsHTTPHandler() http.Handler { return db.eng.Observer().Handler() }

// WriteSlowLog dumps the slow-query log as a JSON array (oldest
// first), each record carrying the query text, strategy, elapsed
// time, outcome, and per-operator statistics tree. Errors before
// EnableObservability.
func (db *DB) WriteSlowLog(w io.Writer) error {
	o := db.eng.Observer()
	if o == nil {
		return fmt.Errorf("gmdj: observability not enabled (call EnableObservability first)")
	}
	return o.SlowLog().WriteJSON(w)
}

// FormatSlowLog renders the slow-query log as text, newest first.
func (db *DB) FormatSlowLog() string { return db.eng.Observer().SlowLog().Format() }

// FormatHistograms renders the workload histograms — query latency
// and result rows per strategy, operator time and rows per operator
// kind — as one summary line each (count, mean, min/p50/p90/p99/max).
func (db *DB) FormatHistograms() string {
	return obs.FormatHistograms(db.eng.Observer().Histograms())
}

// FormatLiveQueries renders the currently in-flight queries with
// their live progress counters.
func (db *DB) FormatLiveQueries() string { return db.eng.Observer().FormatInFlight() }

// LiveQueries snapshots the in-flight query registry (empty without
// EnableObservability). The serving layer sums each query's tracked
// bytes by tenant into the olap_tenant_heap_inuse_bytes gauge.
func (db *DB) LiveQueries() []obs.LiveSnapshot { return db.eng.Observer().InFlight() }

func toResult(rel *relation.Relation) *Result {
	res := &Result{Columns: make([]string, rel.Schema.Len())}
	for i, c := range rel.Schema.Columns {
		res.Columns[i] = c.Name
	}
	res.Rows = make([][]any, rel.Len())
	for i, row := range rel.Rows {
		out := make([]any, len(row))
		for j, v := range row {
			out[j] = fromValue(v)
		}
		res.Rows[i] = out
	}
	return res
}

// LoadCSV bulk-loads CSV (header row of column names, \N for NULL)
// into an existing table; the header must match the table's columns.
func (db *DB) LoadCSV(table string, r io.Reader) error {
	t, err := db.cat.Table(table)
	if err != nil {
		return err
	}
	rel, err := storage.ReadCSV(r, t.Rel.Schema)
	if err != nil {
		return err
	}
	t.Append(rel.Rows...)
	return nil
}

// DumpCSV writes a table as CSV.
func (db *DB) DumpCSV(table string, w io.Writer) error {
	t, err := db.cat.Table(table)
	if err != nil {
		return err
	}
	return storage.WriteCSV(w, t.Rel)
}
