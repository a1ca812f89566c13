// Package exec evaluates logical plans (internal/algebra) against a
// catalog, one operator at a time, materializing intermediate
// relations. It contains:
//
//   - the classical operators (scan, filter, project, distinct, joins
//     with hash acceleration, grouped aggregation),
//   - the dispatch into the GMDJ physical operator (internal/gmdj), and
//   - the native subquery evaluator (subquery.go): tuple-iteration
//     semantics with the vendor-style refinements the paper ascribes to
//     its target DBMS — index lookups, first-match EXISTS, and the
//     early-exit "smart nested loop" for ALL.
package exec

import (
	"fmt"
	"runtime/debug"

	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/gmdj"
	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/mem"
	"github.com/olaplab/gmdj/internal/obs"
	"github.com/olaplab/gmdj/internal/plancache"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/spill"
	"github.com/olaplab/gmdj/internal/storage"
	"github.com/olaplab/gmdj/internal/value"
)

// Executor evaluates plans against a catalog.
type Executor struct {
	// Cat supplies base tables.
	Cat *storage.Catalog
	// UseIndexes lets the native subquery evaluator and scans exploit
	// secondary indexes; the paper's unindexed experiment variants set
	// this false (GMDJ plans are unaffected either way).
	UseIndexes bool
	// MemoizeSubqueries caches subquery outcomes per distinct outer
	// correlation binding — Rao & Ross's invariant reuse [23], an
	// optional refinement of the native strategy.
	MemoizeSubqueries bool
	// Parallelism is the morsel-driven degree: how many workers each
	// parallel operator pipeline may use (table-scan morsels through
	// filters and projections, hash-join build and probe, GMDJ detail
	// scans). 0 and 1 mean serial. Operators clamp further so small
	// inputs never pay goroutine overhead (see relation.FanOut).
	Parallelism int
	// GMDJStats, when non-nil, accumulates GMDJ operator counters.
	GMDJStats *gmdj.Stats
	// Faults injects deterministic failures at named operator sites
	// (nil = no injection). Set once at engine construction; read-only
	// during evaluation, so concurrent queries are safe.
	Faults *govern.Injector
	// Results, when non-nil, is the engine-level cross-query memo:
	// uncorrelated subquery source materializations are published to
	// it under keys that embed each dependency table's id@version, so
	// entries computed before a write are unreachable afterwards (see
	// internal/plancache).
	Results *plancache.ResultCache
	// Spill, when non-nil, is the engine's file-backed store for
	// operator state evicted under memory pressure; GMDJ nodes use it
	// to spill base partitions when the query reservation (carried by
	// the governor) is exhausted. Nil keeps the pre-spill behavior:
	// reservation exhaustion is a hard memory-budget error.
	Spill *spill.Store
}

// New builds an executor with index use enabled.
func New(cat *storage.Catalog) *Executor {
	return &Executor{Cat: cat, UseIndexes: true}
}

// TableSchema implements algebra.SchemaResolver.
func (e *Executor) TableSchema(name string) (*relation.Schema, error) {
	t, err := e.Cat.Table(name)
	if err != nil {
		return nil, err
	}
	return t.Rel.Schema, nil
}

// Run evaluates a plan to a materialized relation, ungoverned.
func (e *Executor) Run(plan algebra.Node) (*relation.Relation, error) {
	return e.RunGoverned(plan, nil)
}

// RunGoverned evaluates a plan under a per-query governor (nil = no
// budgets, no cancellation), without statistics collection.
func (e *Executor) RunGoverned(plan algebra.Node, gov *govern.Governor) (*relation.Relation, error) {
	return e.RunObserved(plan, gov, nil)
}

// RunObserved evaluates a plan under a per-query governor and an
// optional statistics collector (nil = the governed fast path; every
// observability hook is then one nil check). It is the engine's panic
// boundary: an operator panic is recovered here and converted into a
// typed *govern.InternalError carrying the plan node under evaluation,
// so a buggy or injected-fault operator aborts the query, not the
// process. (Parallel GMDJ workers recover on their own goroutines and
// feed the same taxonomy.)
func (e *Executor) RunObserved(plan algebra.Node, gov *govern.Governor, col *obs.Collector) (*relation.Relation, error) {
	return e.RunLive(plan, gov, col, nil)
}

// RunLive is RunObserved plus a live-registry entry (nil = none):
// operator loops bump its row/byte/scan counters as they materialize
// output, which is what the /debug/olap/queries dashboard reads while
// the query is still running.
func (e *Executor) RunLive(plan algebra.Node, gov *govern.Governor, col *obs.Collector, live *obs.LiveQuery) (out *relation.Relation, err error) {
	q := &query{gov: gov, faults: e.Faults, col: col, live: live}
	defer func() {
		if r := recover(); r != nil {
			out = nil
			err = &govern.InternalError{Panic: r, Node: fmt.Sprintf("%T", q.node), Stack: debug.Stack()}
		}
		// Release operator memory charges even when evaluation unwound
		// through a panic or an abort — the reservation outlives this
		// call (the engine releases it), so leaked charges would starve
		// the next operator of the same query... and the trackers are
		// the only record of what was charged.
		for _, t := range q.trackers {
			t.Release()
		}
		// Flush per-query totals into the process metrics regardless of
		// outcome: partial work is still work done.
		obs.MetricAdd("rows_scanned", q.scanned)
		obs.MetricAdd("gmdj.detail_rows", q.gstats.DetailRows)
		obs.MetricAdd("gmdj.probes", q.gstats.Probes)
		obs.MetricAdd("gmdj.matches", q.gstats.Matches)
		obs.MetricAdd("gmdj.completed", q.gstats.Completed)
		obs.MetricAdd("gmdj.spill_partitions", q.gstats.SpillPartitions)
		obs.MetricAdd("gmdj.spill_bytes_written", q.gstats.SpillBytesWritten)
		obs.MetricAdd("gmdj.extra_detail_scans", q.gstats.ExtraDetailScans)
	}()
	if err := gov.Check(); err != nil {
		return nil, err
	}
	return e.eval(plan, newEnv(q))
}

// query is the per-run state shared by every operator of one
// evaluation: the budget governor, the fault injector, the optional
// stats collector, per-query metric accumulators, and the most
// recently entered plan node (recorded so a recovered panic can report
// where it fired).
type query struct {
	gov    *govern.Governor
	faults *govern.Injector
	col    *obs.Collector
	live   *obs.LiveQuery
	node   algebra.Node
	// scanned totals base-table rows produced by Scan operators; gstats
	// totals GMDJ operator counters. Both are flushed to the process
	// metrics once per query.
	scanned int64
	gstats  gmdj.Stats
	// trackers collects the per-operator memory trackers handed out
	// during this evaluation so RunLive can release their charges even
	// when an operator aborts or panics mid-flight.
	trackers []*mem.Tracker
}

// tracker derives a named per-operator tracker from the query's
// reservation (carried by the governor) and registers it for release at
// the end of the run. The nil-safe chain means ungoverned or
// unreserved queries get a nil tracker, i.e. unlimited.
func (q *query) tracker(name string) *mem.Tracker {
	if q == nil {
		return nil
	}
	t := q.gov.Reservation().Tracker(name)
	if t != nil {
		q.trackers = append(q.trackers, t)
	}
	return t
}

// tick is the cooperative cancellation check for operator row loops.
func (q *query) tick() error {
	if q == nil {
		return nil
	}
	return q.gov.Tick()
}

// account charges one materialized row against the query budgets and
// bumps the live progress counters. Ungoverned, unobserved queries
// (both nil) pay two nil checks.
func (q *query) account(row relation.Tuple) error {
	if q == nil || (q.gov == nil && q.live == nil) {
		return nil
	}
	bytes := row.ApproxBytes()
	q.live.AddOut(1, bytes)
	if q.gov == nil {
		return nil
	}
	return q.gov.AccountAppend(1, bytes)
}

// fire triggers any injected fault at a named operator site, recording
// an instant trace event when one fires.
func (q *query) fire(site string) error {
	if q == nil {
		return nil
	}
	err := q.faults.Fire(site, q.gov)
	if err != nil {
		q.col.Instant("fault", site, err.Error())
	}
	return err
}

// env carries the outer tuple context for correlated subquery
// evaluation — the concatenated schemas and values of all enclosing
// query blocks — plus the per-run governance state.
type env struct {
	schema *relation.Schema
	row    relation.Tuple
	q      *query
}

func newEnv(q *query) *env {
	return &env{schema: relation.NewSchema(), row: relation.Tuple{}, q: q}
}

// extend returns an env with an extra block appended.
func (v *env) extend(s *relation.Schema, row relation.Tuple) *env {
	return &env{schema: v.schema.Concat(s), row: v.row.Concat(row), q: v.q}
}

// eval dispatches one plan node, wrapping it in a stats-tree node when
// a collector is attached. The nil-collector path adds a single branch
// over the seed executor, so disabled observability stays free.
func (e *Executor) eval(n algebra.Node, ev *env) (*relation.Relation, error) {
	if ev.q.col == nil {
		return e.evalNode(n, ev)
	}
	label, extras := algebra.Describe(n)
	op := ev.q.col.Enter(label, extras...)
	out, err := e.evalNode(n, ev)
	var rows, bytes int64
	if out != nil {
		rows = int64(out.Len())
		if rows > 0 {
			// Approximate: first-row footprint × cardinality, so the hook
			// stays O(1) per operator instead of O(rows).
			bytes = out.Rows[0].ApproxBytes() * rows
		}
	}
	ev.q.col.Exit(op, rows, bytes, err)
	return out, err
}

func (e *Executor) evalNode(n algebra.Node, ev *env) (*relation.Relation, error) {
	ev.q.node = n // best-effort locus for panic reports
	switch node := n.(type) {
	case *algebra.Scan:
		return e.evalScan(node, ev)
	case *algebra.Raw:
		return node.Rel, nil
	case *algebra.Alias:
		in, err := e.eval(node.Input, ev)
		if err != nil {
			return nil, err
		}
		return in.Rename(node.Name), nil
	case *algebra.Number:
		in, err := e.eval(node.Input, ev)
		if err != nil {
			return nil, err
		}
		ev.q.node = node
		if err := ev.q.fire("exec.number"); err != nil {
			return nil, err
		}
		cols := append(append([]relation.Column{}, in.Schema.Columns...),
			relation.Column{Name: node.As, Type: value.KindInt})
		out := relation.New(relation.NewSchema(cols...))
		// Row numbering is ordinal by definition, so the pipeline stays
		// serial: one batch cursor, numbered in arrival order.
		it := relIter(in)
		for i := 0; ; i++ {
			row, ok, err := it.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			if err := ev.q.tick(); err != nil {
				return nil, err
			}
			numbered := append(row.Clone(), value.Int(int64(i)))
			if err := ev.q.account(numbered); err != nil {
				return nil, err
			}
			out.Append(numbered)
		}
		ev.q.recordPipe(pipeInfo{workers: 1, batches: it.batches})
		return out, nil
	case *algebra.Restrict:
		return e.evalRestrict(node, ev)
	case *algebra.Project:
		return e.evalProject(node, ev)
	case *algebra.Distinct:
		return e.evalDistinct(node, ev)
	case *algebra.Join:
		return e.evalJoin(node, ev)
	case *algebra.GroupBy:
		return e.evalGroupBy(node, ev)
	case *algebra.GMDJ:
		return e.evalGMDJ(node, ev)
	case *algebra.Sort:
		return e.evalSort(node, ev)
	case *algebra.SetOp:
		return e.evalSetOp(node, ev)
	default:
		return nil, fmt.Errorf("exec: unsupported plan node %T", n)
	}
}

// evalScan returns the base table under its alias. Scan output shares
// the stored rows (renaming is metadata-only), so nothing is charged
// against the materialization budgets here.
func (e *Executor) evalScan(s *algebra.Scan, ev *env) (*relation.Relation, error) {
	if err := ev.q.fire("exec.scan"); err != nil {
		return nil, err
	}
	t, err := e.Cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	// A quarantined table (its durable segment failed verification at
	// recovery) refuses queries with the typed corruption error instead
	// of serving rows that never matched the committed bytes.
	if err := t.CheckQuarantine(); err != nil {
		return nil, err
	}
	ev.q.scanned += int64(t.Rel.Len())
	ev.q.live.AddScanned(int64(t.Rel.Len()))
	return t.Rel.Rename(s.EffectiveAlias()), nil
}

func (e *Executor) evalRestrict(r *algebra.Restrict, ev *env) (*relation.Relation, error) {
	in, err := e.eval(r.Input, ev)
	if err != nil {
		return nil, err
	}
	ev.q.node = r
	if err := ev.q.fire("exec.restrict"); err != nil {
		return nil, err
	}
	cp, err := e.compilePred(r.Where, ev.schema.Concat(in.Schema), ev.q)
	if err != nil {
		return nil, err
	}
	in = e.pruneScanInput(r, in, ev)
	workers := relation.FanOut(e.Parallelism, in.Len())
	if predHasSub(cp) {
		// Subquery predicates carry per-query mutable state (the
		// memoization table, result-cache plumbing) that is not safe off
		// the query goroutine, so they keep the serial pipeline.
		workers = 1
	}
	// One scan→filter pipeline per worker; workers pull morsels and
	// buffer passing rows per morsel index, so concatenating the
	// buffers in order reproduces the serial emit order exactly.
	type wstate struct {
		src   *relSource
		f     *filterOp
		batch *relation.Batch
	}
	states := make([]*wstate, workers)
	for w := range states {
		full := make(relation.Tuple, len(ev.row)+in.Schema.Len())
		copy(full, ev.row)
		src := newRelSource(in, 0, 0)
		states[w] = &wstate{
			src:   src,
			f:     &filterOp{child: src, pred: cp, full: full, prefixW: len(ev.row), q: ev.q},
			batch: relation.NewBatch(in.Schema, relation.DefaultBatchCap),
		}
	}
	outs := make([][]relation.Tuple, relation.Morsels(in.Len()))
	used, err := runMorsels(in.Len(), workers, func(w, m, lo, hi int) error {
		st := states[w]
		st.src.reset(lo, hi)
		for {
			if err := st.f.NextBatch(st.batch); err != nil {
				return err
			}
			if st.batch.Len() == 0 {
				return nil
			}
			outs[m] = append(outs[m], st.batch.Rows()...)
		}
	})
	if err != nil {
		return nil, err
	}
	out := relation.New(in.Schema)
	for _, rows := range outs {
		out.Rows = append(out.Rows, rows...)
	}
	var batches int64
	for _, st := range states {
		batches += st.src.batches
	}
	ev.q.recordPipe(pipeInfo{workers: used, batches: batches})
	return out, nil
}

// predHasSub reports whether a compiled predicate contains a subquery
// predicate anywhere — the marker that pins its pipeline to the query
// goroutine.
func predHasSub(p compiledPred) bool {
	switch c := p.(type) {
	case *cpAtom:
		return false
	case *cpAnd:
		for _, t := range c.terms {
			if predHasSub(t) {
				return true
			}
		}
		return false
	case *cpOr:
		for _, t := range c.terms {
			if predHasSub(t) {
				return true
			}
		}
		return false
	case *cpNot:
		return predHasSub(c.p)
	default:
		return true // *cpSub and anything unknown: be conservative
	}
}

func (e *Executor) evalProject(p *algebra.Project, ev *env) (*relation.Relation, error) {
	in, err := e.eval(p.Input, ev)
	if err != nil {
		return nil, err
	}
	ev.q.node = p
	if err := ev.q.fire("exec.project"); err != nil {
		return nil, err
	}
	outSchema, err := p.Schema(e)
	if err != nil {
		// Schema inference through resolver can fail for Raw inputs;
		// fall back to inferring from the materialized input.
		outSchema, err = projectSchemaFrom(p, in.Schema)
		if err != nil {
			return nil, err
		}
	}
	bound := make([]expr.Expr, len(p.Items))
	full := ev.schema.Concat(in.Schema)
	for i, it := range p.Items {
		b, err := it.E.Bind(full)
		if err != nil {
			return nil, err
		}
		bound[i] = b
	}
	out := relation.New(outSchema)
	if p.Distinct {
		// Distinct projection folds rows into first-seen order — a
		// serial consumer, fed through the batch adapter.
		it := relIter(in)
		fullRow := make(relation.Tuple, len(ev.row)+in.Schema.Len())
		copy(fullRow, ev.row)
		seen := map[string]bool{}
		for {
			row, ok, err := it.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			if err := ev.q.tick(); err != nil {
				return nil, err
			}
			copy(fullRow[len(ev.row):], row)
			outRow := make(relation.Tuple, len(bound))
			for i, b := range bound {
				v, err := b.Eval(fullRow)
				if err != nil {
					return nil, err
				}
				outRow[i] = v
			}
			k := outRow.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
			if err := ev.q.account(outRow); err != nil {
				return nil, err
			}
			out.Append(outRow)
		}
		ev.q.recordPipe(pipeInfo{workers: 1, batches: it.batches})
		return out, nil
	}
	// Non-distinct projection is embarrassingly parallel: bound
	// expression trees are immutable, so workers share them and differ
	// only in scratch (input batch, concatenated outer row).
	workers := relation.FanOut(e.Parallelism, in.Len())
	type wstate struct {
		src   *relSource
		op    *projectOp
		batch *relation.Batch
	}
	states := make([]*wstate, workers)
	for w := range states {
		full := make(relation.Tuple, len(ev.row)+in.Schema.Len())
		copy(full, ev.row)
		src := newRelSource(in, 0, 0)
		states[w] = &wstate{
			src: src,
			op: &projectOp{
				child: src, schema: outSchema, bound: bound,
				in:      relation.NewBatch(in.Schema, relation.DefaultBatchCap),
				full:    full,
				prefixW: len(ev.row),
				q:       ev.q,
			},
			batch: relation.NewBatch(outSchema, relation.DefaultBatchCap),
		}
	}
	outs := make([][]relation.Tuple, relation.Morsels(in.Len()))
	used, err := runMorsels(in.Len(), workers, func(w, m, lo, hi int) error {
		st := states[w]
		st.src.reset(lo, hi)
		for {
			if err := st.op.NextBatch(st.batch); err != nil {
				return err
			}
			if st.batch.Len() == 0 {
				return nil
			}
			outs[m] = append(outs[m], st.batch.Rows()...)
		}
	})
	if err != nil {
		return nil, err
	}
	for _, rows := range outs {
		out.Rows = append(out.Rows, rows...)
	}
	var batches int64
	for _, st := range states {
		batches += st.src.batches
	}
	ev.q.recordPipe(pipeInfo{workers: used, batches: batches})
	return out, nil
}

// projectSchemaFrom infers a projection schema directly from a
// materialized input schema.
func projectSchemaFrom(p *algebra.Project, in *relation.Schema) (*relation.Schema, error) {
	cols := make([]relation.Column, len(p.Items))
	for i, it := range p.Items {
		if c, ok := it.E.(*expr.Col); ok {
			pos, err := in.Find(c.Qualifier, c.Name)
			if err != nil {
				return nil, err
			}
			col := in.Columns[pos]
			if it.As != "" {
				col = relation.Column{Name: it.As, Type: col.Type}
			}
			cols[i] = col
			continue
		}
		if it.As == "" {
			return nil, fmt.Errorf("exec: computed projection %s requires an alias", it.E)
		}
		cols[i] = relation.Column{Name: it.As, Type: value.KindNull}
	}
	return relation.NewSchema(cols...), nil
}

func (e *Executor) evalDistinct(d *algebra.Distinct, ev *env) (*relation.Relation, error) {
	in, err := e.eval(d.Input, ev)
	if err != nil {
		return nil, err
	}
	ev.q.node = d
	if err := ev.q.fire("exec.distinct"); err != nil {
		return nil, err
	}
	out := relation.New(in.Schema)
	seen := map[string]bool{}
	// Duplicate elimination keeps first-seen order — a serial fold over
	// the batch stream.
	it := relIter(in)
	for {
		row, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if err := ev.q.tick(); err != nil {
			return nil, err
		}
		k := row.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		if err := ev.q.account(row); err != nil {
			return nil, err
		}
		out.Append(row)
	}
	ev.q.recordPipe(pipeInfo{workers: 1, batches: it.batches})
	return out, nil
}

func (e *Executor) evalGroupBy(g *algebra.GroupBy, ev *env) (*relation.Relation, error) {
	in, err := e.eval(g.Input, ev)
	if err != nil {
		return nil, err
	}
	ev.q.node = g
	if err := ev.q.fire("exec.groupby"); err != nil {
		return nil, err
	}
	keyPos := make([]int, len(g.Keys))
	for i, k := range g.Keys {
		pos, err := in.Schema.Find(k.Qualifier, k.Name)
		if err != nil {
			return nil, err
		}
		keyPos[i] = pos
	}
	specs := make([]agg.Spec, len(g.Aggs))
	for i, s := range g.Aggs {
		b, err := s.Bind(in.Schema)
		if err != nil {
			return nil, err
		}
		specs[i] = b
	}
	type group struct {
		key  relation.Tuple
		accs []agg.Accumulator
	}
	groups := map[string]*group{}
	var order []string
	// Grouped aggregation folds into hash state in arrival order — a
	// serial consumer over the batch stream.
	it := relIter(in)
	for {
		row, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if err := ev.q.tick(); err != nil {
			return nil, err
		}
		key := make(relation.Tuple, len(keyPos))
		for i, pos := range keyPos {
			key[i] = row[pos]
		}
		ks := key.Key()
		gr, ok := groups[ks]
		if !ok {
			gr = &group{key: key, accs: make([]agg.Accumulator, len(specs))}
			for i, s := range specs {
				gr.accs[i] = agg.NewAccumulator(s)
			}
			groups[ks] = gr
			order = append(order, ks)
		}
		for _, a := range gr.accs {
			if err := a.Add(row); err != nil {
				return nil, err
			}
		}
	}
	// Global aggregation over an empty input still yields one row.
	if len(g.Keys) == 0 && len(order) == 0 {
		gr := &group{key: relation.Tuple{}, accs: make([]agg.Accumulator, len(specs))}
		for i, s := range specs {
			gr.accs[i] = agg.NewAccumulator(s)
		}
		groups[""] = gr
		order = append(order, "")
	}
	outCols := make([]relation.Column, 0, len(keyPos)+len(specs))
	for _, pos := range keyPos {
		outCols = append(outCols, in.Schema.Columns[pos])
	}
	outCols = append(outCols, agg.OutputSchema(g.Aggs, "")...)
	out := relation.New(relation.NewSchema(outCols...))
	for _, ks := range order {
		gr := groups[ks]
		row := make(relation.Tuple, 0, len(outCols))
		row = append(row, gr.key...)
		for _, a := range gr.accs {
			row = append(row, a.Result())
		}
		if err := ev.q.account(row); err != nil {
			return nil, err
		}
		out.Append(row)
	}
	ev.q.recordPipe(pipeInfo{workers: 1, batches: it.batches})
	return out, nil
}

func (e *Executor) evalGMDJ(g *algebra.GMDJ, ev *env) (*relation.Relation, error) {
	base, err := e.eval(g.Base, ev)
	if err != nil {
		return nil, err
	}
	detail, err := e.eval(g.Detail, ev)
	if err != nil {
		return nil, err
	}
	ev.q.node = g
	// Collect this operator's counters separately so the stats tree can
	// attribute them to this GMDJ node, then fold them into the
	// per-query totals.
	var local gmdj.Stats
	opts := gmdj.Options{
		Completion: g.Completion,
		Workers:    e.Parallelism,
		Stats:      &local,
		Gov:        ev.q.gov,
		Faults:     ev.q.faults,
		Tracer:     ev.q.col.Tracer(),
		Live:       ev.q.live,
		Mem:        ev.q.tracker("gmdj"),
		Spill:      e.Spill,
	}
	// The table's per-version key-hash memo describes the detail rows
	// only when the detail relation IS a base table (a bare scan shares
	// the table's row slice, so row positions line up); any operator in
	// between produces a fresh derived relation, whose keys the
	// evaluator hashes itself.
	if s, ok := g.Detail.(*algebra.Scan); ok {
		if t, err := e.Cat.Table(s.Table); err == nil {
			opts.PackedHash = t.KeyHashes
		}
	}
	out, err := gmdj.Evaluate(base, detail, g.Conds, opts)
	ev.q.gstats.Merge(&local)
	if e.GMDJStats != nil {
		e.GMDJStats.Merge(&local)
	}
	if op := ev.q.col.Current(); op != nil {
		workers := int64(len(local.WorkerRows))
		if workers == 0 {
			workers = 1 // serial scan (or spilled serial scans)
		}
		op.Add("workers", workers)
		op.Add("batches", local.Batches)
		op.Add("detail_rows", local.DetailRows)
		op.Add("probes", local.Probes)
		op.Add("matches", local.Matches)
		op.Add("completed", local.Completed)
		op.Add("short_circuit_rows", local.ShortCircuitRows)
		op.Add("fallback_conds", int64(local.FallbackConds))
		if local.PackedHashConds > 0 {
			op.Add("packed_hash_conds", local.PackedHashConds)
		}
		if local.SpillPartitions > 0 {
			op.Add("spill_partitions", local.SpillPartitions)
			op.Add("spill_bytes_written", local.SpillBytesWritten)
			op.Add("spill_bytes_read", local.SpillBytesRead)
			op.Add("extra_detail_scans", local.ExtraDetailScans)
		}
		for w, rows := range local.WorkerRows {
			op.Add(fmt.Sprintf("worker%d_rows", w), rows)
		}
	}
	return out, err
}
