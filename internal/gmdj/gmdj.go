// Package gmdj implements the physical evaluation of the generalized
// multi-dimensional join operator MD(B, R, (l₁..lₘ), (θ₁..θₘ)) — the
// paper's core mechanism for subquery evaluation.
//
// Evaluation follows the hash-index strategy of Chatziantoniou et al.
// and Akinde & Böhlen: the base-values relation B is materialized in
// memory; each θᵢ is compiled by splitting its conjuncts into
//
//   - equi-bindings B.x = R.y, which key a hash index over B,
//   - base-only conjuncts, evaluated once per base tuple,
//   - detail-only conjuncts, evaluated once per detail tuple, and
//   - mixed residual conjuncts, evaluated per candidate pair;
//
// the detail relation R is then streamed exactly once, each detail
// tuple probing the index (or, when θᵢ has no equi-binding, scanning
// the active base entries) and folding into per-base aggregate
// accumulators. Intermediate state is bounded by |B| — the property
// the paper's cost argument rests on.
//
// The optional tuple-completion optimization (§4.2) drops a base tuple
// from the active set the moment the downstream selection's outcome is
// decided, which is what rescues the GMDJ on bindingless conditions
// such as Figure 4's ≠ correlation.
package gmdj

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/mem"
	"github.com/olaplab/gmdj/internal/obs"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/spill"
	"github.com/olaplab/gmdj/internal/value"
)

// Stats reports work performed by one Evaluate call. All counters are
// cumulative across conditions.
type Stats struct {
	// DetailRows is how far into the detail relation the scan got: the
	// number of detail tuples it covered before it finished or
	// short-circuited. A parallel scan covers the detail once per
	// worker and reports its longest worker's scan, which is where the
	// serial scan would have stopped; the per-worker visits are in
	// WorkerRows. Either way DetailRows + ShortCircuitRows is |detail|
	// for every scan.
	DetailRows int64
	// Probes counts hash-index probes plus fallback base-entry visits.
	Probes int64
	// Matches counts (base, detail, θᵢ) triples that satisfied θᵢ.
	Matches int64
	// Completed counts base tuples retired early by tuple completion.
	Completed int64
	// ShortCircuitRows counts detail tuples skipped because tuple
	// completion decided every base tuple before the scan finished —
	// the strongest form of the §4.2 win. It is |detail| - DetailRows
	// per scan.
	ShortCircuitRows int64
	// FallbackConds is the number of conditions lacking equi-bindings
	// (evaluated by scanning active base entries).
	FallbackConds int
	// Batches counts the detail-side morsel chunks fed through the
	// scan (relation.DefaultBatchCap rows each); parallel scans count
	// every worker's chunks. This is the batches= figure EXPLAIN
	// ANALYZE shows for GMDJ operators.
	Batches int64
	// WorkerRows records, for a parallel scan, how many detail rows
	// each worker fed (per-worker locals, recorded at drain time). Nil
	// for serial evaluation. Merge concatenates, so spilled runs list
	// every scan's workers in order.
	WorkerRows []int64
	// PackedHashConds counts condition key sets whose detail hash
	// vector came from the detail table's per-version memo
	// (Options.PackedHash) instead of hashing row-oriented tuples.
	PackedHashConds int64
	// SpillPartitions counts base-state partitions evicted to the spill
	// store because the memory reservation could not hold the whole
	// base state; SpillBytesWritten/SpillBytesRead are their on-disk
	// frame traffic.
	SpillPartitions   int64
	SpillBytesWritten int64
	SpillBytesRead    int64
	// ExtraDetailScans counts full detail scans beyond the first: the
	// paper's one-scan guarantee relaxes to 1+k scans when k partitions
	// spill, and this reports k honestly.
	ExtraDetailScans int64
}

// Merge folds src into s. Counters add; WorkerRows concatenate. Safe
// only after the source evaluation has drained (gmdj merges per-worker
// locals at drain, never shares counters mid-scan).
func (s *Stats) Merge(src *Stats) {
	if s == nil || src == nil {
		return
	}
	s.DetailRows += src.DetailRows
	s.Probes += src.Probes
	s.Matches += src.Matches
	s.Completed += src.Completed
	s.ShortCircuitRows += src.ShortCircuitRows
	s.FallbackConds += src.FallbackConds
	s.Batches += src.Batches
	s.WorkerRows = append(s.WorkerRows, src.WorkerRows...)
	s.PackedHashConds += src.PackedHashConds
	s.SpillPartitions += src.SpillPartitions
	s.SpillBytesWritten += src.SpillBytesWritten
	s.SpillBytesRead += src.SpillBytesRead
	s.ExtraDetailScans += src.ExtraDetailScans
}

// Options tunes evaluation.
type Options struct {
	// Completion enables §4.2 tuple completion when non-nil.
	Completion *algebra.CompletionInfo
	// Workers is the configured parallelism. relation.FanOut turns it
	// and the base size into the number of goroutines that partition
	// the base relation, each scanning the detail relation against its
	// own base range; results are byte-identical to serial evaluation
	// at any degree. 0 and 1 mean serial.
	Workers int
	// Stats, when non-nil, receives evaluation counters.
	Stats *Stats
	// Gov, when non-nil, governs the scan: cooperative cancellation
	// ticks per detail row (shared across workers) and budget
	// accounting for the emitted output rows.
	Gov *govern.Governor
	// Faults injects deterministic failures at the gmdj.compile,
	// gmdj.worker, and gmdj.emit sites (nil = no injection).
	Faults *govern.Injector
	// Tracer, when non-nil, records one span per parallel worker
	// partition (Perfetto track per worker). Nil disables tracing.
	Tracer *obs.Tracer
	// Live, when non-nil, receives per-detail-row progress for the live
	// query dashboard. Shared by parallel workers (atomic counters), so
	// a long detail scan shows advancing numbers while it runs.
	Live *obs.LiveQuery
	// PackedHash, when non-nil, supplies detail-side key-hash vectors
	// from the detail table's per-version memo (storage.Table.KeyHashes):
	// given the detail-schema positions of a condition's key columns, it
	// returns the per-row hash and validity vectors, bit-identical to
	// hashing the row-oriented tuples. The executor sets it only when
	// the detail relation is a bare table scan; a vector whose length
	// differs from the detail relation is not used, and that condition
	// hashes rows instead. Vectors are shared and never written.
	PackedHash func(key []int) (h []uint64, ok []bool)
	// Mem, when non-nil, charges the estimated base-state footprint
	// (hash indexes, accumulators, completion flags) against the
	// query's memory reservation before building it. When the
	// reservation cannot supply the bytes, evaluation spills (Spill
	// non-nil) or fails with govern.ErrMemBudget (Spill nil).
	Mem *mem.Tracker
	// Spill, when non-nil, is the file-backed store used to evict base
	// partitions under memory pressure. Nil turns reservation
	// exhaustion into a hard govern.ErrMemBudget error — the pre-spill
	// "kill" regime.
	Spill *spill.Store
}

// detailHashVec is the per-detail-row key-hash partition for one
// key-column set: H[i] is the FNV hash of row i's key columns and
// OK[i] is false where any key component is NULL (never matches).
type detailHashVec struct {
	H  []uint64
	OK []bool
}

// condProg is one compiled θᵢ with its aggregate list.
type condProg struct {
	baseKey    []int     // base-schema positions of equi-binding keys
	detailKey  []int     // detail-schema positions of equi-binding keys
	basePred   expr.Expr // bound to base schema; nil when absent
	detailPred expr.Expr // bound to detail schema; nil when absent
	mixedPred  expr.Expr // bound to base++detail; nil when absent
	fullTheta  expr.Expr // bound to base++detail; used by fallback conds
	specs      []agg.Spec
	aggOffset  int   // position of this cond's first aggregate column
	atoms      []int // completion atom indexes watching this condition

	index map[uint64][]int32 // base positions by key hash (nil ⇒ fallback)

	// detailHash, when non-nil, holds the precomputed key hash per
	// detail row, replacing per-row keyHash calls in feed. Read-only
	// once attached (shared across workers, and across queries when it
	// comes from the table memo).
	detailHash *detailHashVec
	// detailPredOK, when non-nil, caches the detail-only predicate
	// outcome per detail row. prepareParallel fills it before a
	// parallel run so workers share one evaluation pass instead of
	// each repeating it. Read-only once built.
	detailPredOK []bool
}

type program struct {
	base, detail *relation.Relation
	baseW        int
	conds        []condProg
	totalAggs    int
	comp         *algebra.CompletionInfo
	outSchema    *relation.Schema
	gov          *govern.Governor
	faults       *govern.Injector
	tracer       *obs.Tracer
	live         *obs.LiveQuery
}

// Evaluate computes the GMDJ of base and detail under conds.
// The output schema is base's columns followed by each condition's
// aggregate columns in order; output rows appear in base order (minus
// tuples dropped by completion).
func Evaluate(base, detail *relation.Relation, conds []algebra.GMDJCond, opts Options) (*relation.Relation, error) {
	if err := opts.Faults.Fire("gmdj.compile", opts.Gov); err != nil {
		return nil, err
	}
	// Memory admission for the resident base state: charge the
	// estimated footprint before building it. A reservation that cannot
	// supply the bytes sends evaluation down the spill path — or, with
	// no spill store, fails with the typed memory-budget error (the
	// pre-spill "kill" regime).
	if opts.Mem != nil && len(base.Rows) > 0 {
		est := estimateStateBytes(base, conds, opts.Completion)
		if err := opts.Mem.Grow(est); err != nil {
			if opts.Spill == nil {
				return nil, &govern.BudgetError{Kind: govern.ErrMemBudget, Limit: opts.Mem.Available(), Observed: est}
			}
			return evaluateSpilled(base, detail, conds, opts, est)
		}
		defer opts.Mem.Shrink(est)
	}
	p, err := prepare(base, detail, conds, opts)
	if err != nil {
		return nil, err
	}
	if opts.Stats != nil {
		for _, c := range p.conds {
			if c.index == nil && len(c.baseKey) == 0 {
				opts.Stats.FallbackConds++
			}
		}
	}
	decided, accs, err := p.run(opts.Workers, opts.Stats)
	if err != nil {
		return nil, err
	}
	return p.emit(decided, accs)
}

// run executes the detail scan (serial or parallel) and returns the
// per-base decisions and accumulator rows, leaving materialization to
// emit — the split that lets the spill path evaluate partitions
// independently and still emit once, in base order. The base is
// sharded when relation.FanOut gives its size more than one worker.
func (p *program) run(parallelism int, stats *Stats) ([]int8, [][]agg.Accumulator, error) {
	if workers := relation.FanOut(parallelism, len(p.base.Rows)); workers > 1 {
		if err := p.prepareParallel(); err != nil {
			return nil, nil, err
		}
		return p.runParallel(workers, stats)
	}
	return p.runSerial(stats)
}

// prepareParallel hoists the per-detail-row work every worker would
// otherwise repeat into shared read-only vectors: indexed conditions
// get their key-hash partition (when the table memo hasn't already
// supplied one), and conditions with a detail-only predicate get its
// outcome bitmap. One O(detail) pass here replaces workers× passes
// inside the scan, leaving only the index probes themselves as
// duplicated work.
func (p *program) prepareParallel() error {
	n := len(p.detail.Rows)
	for ci := range p.conds {
		cp := &p.conds[ci]
		if cp.index != nil && cp.detailHash == nil {
			vec := &detailHashVec{H: make([]uint64, n), OK: make([]bool, n)}
			for di, row := range p.detail.Rows {
				vec.H[di], vec.OK[di] = keyHash(row, cp.detailKey)
			}
			cp.detailHash = vec
		}
		if cp.detailPred != nil && cp.detailPredOK == nil {
			oks := make([]bool, n)
			for di, row := range p.detail.Rows {
				tr, err := expr.EvalTri(cp.detailPred, row)
				if err != nil {
					return err
				}
				oks[di] = tr == value.True
			}
			cp.detailPredOK = oks
		}
	}
	return nil
}

// estimateStateBytes approximates the resident footprint of the GMDJ
// base state: per base row, the re-materialized tuple (spilled
// partitions decode rows from disk), hash-index entries per condition,
// accumulator structs, and completion flags. It is an estimate — what
// an admission decision needs — not an allocation count.
func estimateStateBytes(base *relation.Relation, conds []algebra.GMDJCond, comp *algebra.CompletionInfo) int64 {
	nBase := int64(len(base.Rows))
	if nBase == 0 {
		return 0
	}
	totalAggs := 0
	for _, c := range conds {
		totalAggs += len(c.Aggs)
	}
	per := int64(64)                  // accumulator-row slice header + flags
	per += int64(totalAggs) * 48      // accumulator structs
	per += int64(len(conds)) * 24     // index entries + fallback scan lists
	per += base.Rows[0].ApproxBytes() // representative row footprint
	if comp != nil {
		per += int64(len(comp.Atoms)) * 2 // matched flags
	}
	return nBase * per
}

// prepare compiles conds for one evaluation and wires opts into the
// program: the governance and observability hooks, and each indexed
// condition's detail key-hash vector from the table memo
// (opts.PackedHash) when it covers exactly the detail rows. Conditions
// without one hash rows during the scan.
func prepare(base, detail *relation.Relation, conds []algebra.GMDJCond, opts Options) (*program, error) {
	p, err := compile(base, detail, conds, opts.Completion)
	if err != nil {
		return nil, err
	}
	p.gov, p.faults, p.tracer, p.live = opts.Gov, opts.Faults, opts.Tracer, opts.Live
	if opts.PackedHash == nil {
		return p, nil
	}
	n := len(detail.Rows)
	for i := range p.conds {
		cp := &p.conds[i]
		if cp.index == nil {
			continue
		}
		if h, ok := opts.PackedHash(cp.detailKey); len(h) == n && len(ok) == n {
			cp.detailHash = &detailHashVec{H: h, OK: ok}
			if opts.Stats != nil {
				opts.Stats.PackedHashConds++
			}
		}
	}
	return p, nil
}

// compile binds and classifies every condition.
func compile(base, detail *relation.Relation, conds []algebra.GMDJCond, comp *algebra.CompletionInfo) (*program, error) {
	combined := base.Schema.Concat(detail.Schema)
	p := &program{
		base:   base,
		detail: detail,
		baseW:  base.Schema.Len(),
		comp:   comp,
		conds:  make([]condProg, len(conds)),
	}
	outCols := append([]relation.Column{}, base.Schema.Columns...)
	for i, c := range conds {
		cp := &p.conds[i]
		cp.aggOffset = p.totalAggs
		for _, spec := range c.Aggs {
			bound, err := spec.Bind(detail.Schema)
			if err != nil {
				return nil, fmt.Errorf("gmdj: condition %d: %w", i, err)
			}
			cp.specs = append(cp.specs, bound)
			p.totalAggs++
		}
		outCols = append(outCols, agg.OutputSchema(c.Aggs, "R")...)
		if err := classifyTheta(cp, c.Theta, base.Schema, detail.Schema, combined); err != nil {
			return nil, fmt.Errorf("gmdj: condition %d (%s): %w", i, c.Theta, err)
		}
	}
	if comp != nil {
		for ai, a := range comp.Atoms {
			if a.Cond < 0 || a.Cond >= len(conds) {
				return nil, fmt.Errorf("gmdj: completion atom %d references condition %d of %d", ai, a.Cond, len(conds))
			}
			p.conds[a.Cond].atoms = append(p.conds[a.Cond].atoms, ai)
		}
	}
	p.outSchema = relation.NewSchema(outCols...)
	// Build hash indexes for conditions with bindings.
	for i := range p.conds {
		cp := &p.conds[i]
		if len(cp.baseKey) == 0 {
			continue
		}
		cp.index = make(map[uint64][]int32, len(base.Rows))
		for bi, row := range base.Rows {
			h, ok := keyHash(row, cp.baseKey)
			if !ok {
				continue // NULL key never matches through equality
			}
			cp.index[h] = append(cp.index[h], int32(bi))
		}
	}
	return p, nil
}

// classifyTheta splits θ's conjuncts into bindings and side-local
// predicates as described in the package comment.
func classifyTheta(cp *condProg, theta expr.Expr, baseS, detailS, combined *relation.Schema) error {
	resolves := func(c *expr.Col, s *relation.Schema) bool {
		_, err := s.Find(c.Qualifier, c.Name)
		return err == nil
	}
	side := func(e expr.Expr) (baseOnly, detailOnly bool, err error) {
		baseOnly, detailOnly = true, true
		for _, c := range expr.Cols(e) {
			inB, inD := resolves(c, baseS), resolves(c, detailS)
			if inB && inD {
				return false, false, fmt.Errorf("column %s is ambiguous between base and detail", c)
			}
			if !inB && !inD {
				return false, false, fmt.Errorf("column %s resolves in neither base nor detail", c)
			}
			if !inB {
				baseOnly = false
			}
			if !inD {
				detailOnly = false
			}
		}
		return baseOnly, detailOnly, nil
	}

	var basePreds, detailPreds, mixedPreds []expr.Expr
	for _, cj := range expr.Conjuncts(theta) {
		// Equi-binding detection: col = col across sides.
		if cmp, ok := cj.(*expr.Cmp); ok && cmp.Op == value.EQ {
			lc, lok := cmp.L.(*expr.Col)
			rc, rok := cmp.R.(*expr.Col)
			if lok && rok {
				lInB, lInD := resolves(lc, baseS), resolves(lc, detailS)
				rInB, rInD := resolves(rc, baseS), resolves(rc, detailS)
				if lInB && !lInD && rInD && !rInB {
					bi, _ := baseS.Find(lc.Qualifier, lc.Name)
					di, _ := detailS.Find(rc.Qualifier, rc.Name)
					cp.baseKey = append(cp.baseKey, bi)
					cp.detailKey = append(cp.detailKey, di)
					continue
				}
				if rInB && !rInD && lInD && !lInB {
					bi, _ := baseS.Find(rc.Qualifier, rc.Name)
					di, _ := detailS.Find(lc.Qualifier, lc.Name)
					cp.baseKey = append(cp.baseKey, bi)
					cp.detailKey = append(cp.detailKey, di)
					continue
				}
			}
		}
		bOnly, dOnly, err := side(cj)
		if err != nil {
			return err
		}
		switch {
		case bOnly && dOnly: // constant-only conjunct
			mixedPreds = append(mixedPreds, cj)
		case bOnly:
			basePreds = append(basePreds, cj)
		case dOnly:
			detailPreds = append(detailPreds, cj)
		default:
			mixedPreds = append(mixedPreds, cj)
		}
	}

	var err error
	if len(basePreds) > 0 {
		if cp.basePred, err = expr.Conj(basePreds).Bind(baseS); err != nil {
			return err
		}
	}
	if len(detailPreds) > 0 {
		if cp.detailPred, err = expr.Conj(detailPreds).Bind(detailS); err != nil {
			return err
		}
	}
	if len(mixedPreds) > 0 {
		if cp.mixedPred, err = expr.Conj(mixedPreds).Bind(combined); err != nil {
			return err
		}
	}
	if cp.fullTheta, err = theta.Bind(combined); err != nil {
		return err
	}
	return nil
}

// keyHash hashes the key columns of a row; ok is false when any key
// component is NULL.
func keyHash(row relation.Tuple, key []int) (uint64, bool) {
	var h uint64 = 14695981039346656037
	for _, pos := range key {
		v := row[pos]
		if v.IsNull() {
			return 0, false
		}
		h ^= v.Hash()
		h *= 1099511628211
	}
	return h, true
}

func keysEqual(baseRow, detailRow relation.Tuple, baseKey, detailKey []int) bool {
	for k := range baseKey {
		if !value.Equal(baseRow[baseKey[k]], detailRow[detailKey[k]]) {
			return false
		}
	}
	return true
}

// state is the per-run mutable evaluation state. Serial evaluation
// uses one state spanning the whole base; parallel evaluation gives
// each worker a state owning a contiguous base range.
type state struct {
	p *program
	// lo, hi bound the base range this state owns. Arrays are
	// full-length and globally indexed — hash-index buckets hand out
	// global base positions, so global indexing keeps the probe path
	// offset-free — but only [lo,hi) is populated.
	lo, hi   int
	accs     [][]agg.Accumulator // [base][agg]
	active   []bool
	decided  []int8 // 0 undecided, +1 accept (frozen), -1 drop
	matched  [][]bool
	combined relation.Tuple
	// basePredOK[c][b] caches base-only conjunct outcomes.
	basePredOK [][]bool
	// condScan is, per condition, the fallback iteration list of base
	// positions (nil for indexed conditions). Conditions with a
	// base-only predicate list only the rows that pass it, so e.g. an
	// "x IS NULL" counterexample condition costs nothing on NULL-free
	// data. Lists are compacted lazily as completion retires entries.
	condScan [][]int32
	inactive int
	// remaining counts still-active base entries in [lo,hi); when
	// completion retires the last one the detail scan short-circuits
	// (no base tuple this state owns can change its output anymore).
	remaining int
	// liveFlushed tracks how many fed detail rows have been published
	// to the live-query registry; flushLive publishes per chunk, so
	// parallel workers don't contend on the shared atomic per row.
	liveFlushed int64
	stats       Stats
}

// flushLive publishes detail-row progress accumulated since the last
// flush to the live-query registry.
func (s *state) flushLive() {
	if d := s.stats.DetailRows - s.liveFlushed; d > 0 {
		s.p.live.AddDetail(d)
		s.liveFlushed = s.stats.DetailRows
	}
}

// newState builds evaluation state for the base range [lo,hi): the
// per-entry accumulator rows, completion flags, base-predicate cache,
// and fallback scan lists cover only the owned range, so a parallel
// run splits the O(base) construction cost across workers instead of
// repeating it.
func (p *program) newState(lo, hi int) (*state, error) {
	nBase := len(p.base.Rows)
	s := &state{
		p:         p,
		lo:        lo,
		hi:        hi,
		accs:      make([][]agg.Accumulator, nBase),
		active:    make([]bool, nBase),
		decided:   make([]int8, nBase),
		combined:  make(relation.Tuple, p.baseW+p.detail.Schema.Len()),
		remaining: hi - lo,
	}
	for bi := lo; bi < hi; bi++ {
		s.active[bi] = true
		row := make([]agg.Accumulator, 0, p.totalAggs)
		for ci := range p.conds {
			for _, spec := range p.conds[ci].specs {
				row = append(row, agg.NewAccumulator(spec))
			}
		}
		s.accs[bi] = row
	}
	if p.comp != nil {
		s.matched = make([][]bool, nBase)
		for bi := lo; bi < hi; bi++ {
			s.matched[bi] = make([]bool, len(p.comp.Atoms))
		}
	}
	s.basePredOK = make([][]bool, len(p.conds))
	for ci := range p.conds {
		cp := &p.conds[ci]
		if cp.basePred == nil {
			continue
		}
		oks := make([]bool, nBase)
		for bi := lo; bi < hi; bi++ {
			tr, err := expr.EvalTri(cp.basePred, p.base.Rows[bi])
			if err != nil {
				return nil, err
			}
			oks[bi] = tr == value.True
		}
		s.basePredOK[ci] = oks
	}
	s.condScan = make([][]int32, len(p.conds))
	for ci := range p.conds {
		if p.conds[ci].index != nil {
			continue
		}
		list := make([]int32, 0, hi-lo)
		oks := s.basePredOK[ci]
		for bi := lo; bi < hi; bi++ {
			if oks == nil || oks[bi] {
				list = append(list, int32(bi))
			}
		}
		s.condScan[ci] = list
	}
	return s, nil
}

// feed folds one detail row (at detail position di) into the state.
func (s *state) feed(di int) error {
	p := s.p
	detailRow := p.detail.Rows[di]
	copy(s.combined[p.baseW:], detailRow)
	s.stats.DetailRows++
	for ci := range p.conds {
		cp := &p.conds[ci]
		if cp.detailPred != nil {
			if cp.detailPredOK != nil {
				if !cp.detailPredOK[di] {
					continue
				}
			} else {
				tr, err := expr.EvalTri(cp.detailPred, detailRow)
				if err != nil {
					return err
				}
				if tr != value.True {
					continue
				}
			}
		}
		if cp.index != nil {
			var h uint64
			var ok bool
			if vec := cp.detailHash; vec != nil {
				h, ok = vec.H[di], vec.OK[di]
			} else {
				h, ok = keyHash(detailRow, cp.detailKey)
			}
			if !ok {
				continue
			}
			for _, bi := range cp.index[h] {
				s.stats.Probes++
				if !s.active[bi] {
					continue
				}
				baseRow := p.base.Rows[bi]
				if !keysEqual(baseRow, detailRow, cp.baseKey, cp.detailKey) {
					continue
				}
				if oks := s.basePredOK[ci]; oks != nil && !oks[bi] {
					continue
				}
				if cp.mixedPred != nil {
					copy(s.combined[:p.baseW], baseRow)
					tr, err := expr.EvalTri(cp.mixedPred, s.combined)
					if err != nil {
						return err
					}
					if tr != value.True {
						continue
					}
				}
				if err := s.match(int(bi), ci, detailRow); err != nil {
					return err
				}
			}
			continue
		}
		// Fallback: no equi-binding — visit every active base entry
		// that passes the condition's base-only predicate.
		for _, bi := range s.condScan[ci] {
			if !s.active[bi] {
				continue
			}
			s.stats.Probes++
			copy(s.combined[:p.baseW], p.base.Rows[bi])
			tr, err := expr.EvalTri(cp.fullTheta, s.combined)
			if err != nil {
				return err
			}
			if tr != value.True {
				continue
			}
			if err := s.match(int(bi), ci, detailRow); err != nil {
				return err
			}
		}
	}
	return nil
}

// match records that detailRow satisfied condition ci for base entry
// bi: aggregates are folded and completion is advanced.
func (s *state) match(bi, ci int, detailRow relation.Tuple) error {
	p := s.p
	cp := &p.conds[ci]
	s.stats.Matches++
	accRow := s.accs[bi]
	for k := range cp.specs {
		if err := accRow[cp.aggOffset+k].Add(detailRow); err != nil {
			return err
		}
	}
	if p.comp == nil || len(cp.atoms) == 0 {
		return nil
	}
	changed := false
	for _, ai := range cp.atoms {
		if !s.matched[bi][ai] {
			s.matched[bi][ai] = true
			changed = true
		}
	}
	if !changed {
		return nil
	}
	switch evalTree(p.comp.Tree, p.comp.Atoms, s.matched[bi]) {
	case value.False:
		s.retire(bi, -1)
	case value.True:
		if p.comp.FreezeTrue {
			s.retire(bi, 1)
		}
	}
	return nil
}

// retire removes a base entry from the active set.
func (s *state) retire(bi int, decision int8) {
	if !s.active[bi] {
		return
	}
	s.active[bi] = false
	s.decided[bi] = decision
	s.stats.Completed++
	s.inactive++
	s.remaining--
	if s.inactive*2 > s.hi-s.lo {
		for ci, list := range s.condScan {
			if list == nil {
				continue
			}
			kept := list[:0]
			for _, x := range list {
				if s.active[x] {
					kept = append(kept, x)
				}
			}
			s.condScan[ci] = kept
		}
		s.inactive = 0
	}
}

// evalTree Kleene-evaluates the completion formula: unmatched atoms are
// Unknown; a matched AtomZero is definitively False and a matched
// AtomNonZero definitively True (counts only grow).
func evalTree(t *algebra.BoolTree, atoms []algebra.CompletionAtom, matched []bool) value.Tri {
	if t == nil {
		return value.Unknown
	}
	switch t.Op {
	case algebra.BoolLeaf:
		if !matched[t.Leaf] {
			return value.Unknown
		}
		if atoms[t.Leaf].Kind == algebra.AtomZero {
			return value.False
		}
		return value.True
	case algebra.BoolAnd:
		acc := value.True
		for _, k := range t.Kids {
			acc = acc.And(evalTree(k, atoms, matched))
			if acc == value.False {
				return value.False
			}
		}
		return acc
	case algebra.BoolOr:
		acc := value.False
		for _, k := range t.Kids {
			acc = acc.Or(evalTree(k, atoms, matched))
			if acc == value.True {
				return value.True
			}
		}
		return acc
	case algebra.BoolNot:
		return evalTree(t.Kids[0], atoms, matched).Not()
	case algebra.BoolOpaque:
		return value.Unknown
	default:
		return value.Unknown
	}
}

// emit materializes the output relation from final state, charging
// each emitted row against the query budgets.
func (p *program) emit(decided []int8, accs [][]agg.Accumulator) (*relation.Relation, error) {
	if err := p.faults.Fire("gmdj.emit", p.gov); err != nil {
		return nil, err
	}
	out := relation.New(p.outSchema)
	for bi, baseRow := range p.base.Rows {
		if decided[bi] == -1 {
			continue
		}
		row := make(relation.Tuple, 0, p.baseW+p.totalAggs)
		row = append(row, baseRow...)
		for _, a := range accs[bi] {
			row = append(row, a.Result())
		}
		if p.gov != nil || p.live != nil {
			bytes := row.ApproxBytes()
			p.live.AddOut(1, bytes)
			if p.gov != nil {
				if err := p.gov.AccountAppend(1, bytes); err != nil {
					return nil, err
				}
			}
		}
		out.Append(row)
	}
	return out, nil
}

func (p *program) runSerial(stats *Stats) ([]int8, [][]agg.Accumulator, error) {
	s, err := p.newState(0, len(p.base.Rows))
	if err != nil {
		return nil, nil, err
	}
	// The detail scan proceeds in batch-sized chunks — the same morsel
	// discipline the rest of the engine runs on, and the unit the
	// batches= counter reports.
	n := len(p.detail.Rows)
	defer s.flushLive()
scan:
	for lo := 0; lo < n; lo += relation.DefaultBatchCap {
		hi := lo + relation.DefaultBatchCap
		if hi > n {
			hi = n
		}
		s.stats.Batches++
		for di := lo; di < hi; di++ {
			if s.remaining == 0 {
				// Every base tuple is decided: no remaining detail row can
				// change the output, so the scan short-circuits (§4.2 taken
				// to its limit).
				s.stats.ShortCircuitRows += int64(n - di)
				break scan
			}
			if err := p.gov.Tick(); err != nil {
				return nil, nil, err
			}
			if err := s.feed(di); err != nil {
				return nil, nil, err
			}
		}
		s.flushLive()
	}
	stats.Merge(&s.stats)
	return s.decided, s.accs, nil
}

// runParallel shards the BASE relation: each worker owns a contiguous
// range of base tuples, builds state for that range only, and scans
// the whole detail relation against it. Sharding the base rather than
// the detail wins three ways:
//
//   - The O(base) state construction (accumulator rows, base-predicate
//     cache, fallback scan lists) splits across workers instead of
//     being repeated per worker.
//   - Every base tuple's accumulators are fed by exactly one worker,
//     in detail order — the same fold order the serial scan uses — so
//     results are byte-identical to serial at any degree with no
//     cross-worker accumulator merge (order-sensitive aggregates
//     included). Completion decisions are likewise final per range.
//   - Tuple completion short-circuits per range: a worker whose
//     entries are all decided stops scanning immediately, so the
//     aggregate detail work tracks the serial scan's effective work,
//     not workers × detail.
//
// The price is that indexed conditions probe the shared hash index
// from every worker and discard hits outside the owned range (one
// active-flag load each); fallback θ-conditions pay nothing extra —
// each worker iterates only its own scan lists. Merging is pure
// concatenation of ranges in base order.
//
// Failure semantics: the first worker to fail (operator error, budget
// violation, cancellation, or recovered panic) records its error and
// trips a shared stop flag; every other worker observes the flag on
// its next detail row and returns without finishing its scan. The
// pool therefore drains within one row of the first failure, and
// Evaluate returns the first error in order of occurrence. Worker
// panics are recovered on the worker goroutine itself — the engine's
// panic boundary lives on the query goroutine and cannot shield
// workers — and surface as *govern.InternalError.
func (p *program) runParallel(workers int, stats *Stats) ([]int8, [][]agg.Accumulator, error) {
	nBase := len(p.base.Rows)
	// Allocate every worker state before launching any goroutine, so an
	// allocation error cannot strand already-started workers.
	states := make([]*state, workers)
	for w := range states {
		st, err := p.newState(w*nBase/workers, (w+1)*nBase/workers)
		if err != nil {
			return nil, nil, err
		}
		states[w] = st
	}
	var (
		stop     atomic.Bool
		failOnce sync.Once
		firstErr error
	)
	fail := func(err error) {
		failOnce.Do(func() { firstErr = err })
		stop.Store(true)
	}
	var wg sync.WaitGroup
	n := len(p.detail.Rows)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, st *state) {
			start := time.Now()
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					fail(&govern.InternalError{Panic: r, Node: "*algebra.GMDJ", Stack: debug.Stack()})
				}
			}()
			defer st.flushLive()
			defer func() {
				p.tracer.Span("gmdj", fmt.Sprintf("worker %d base [%d:%d)", w, st.lo, st.hi), int64(2+w), start, time.Since(start))
			}()
			if err := p.faults.Fire("gmdj.worker", p.gov); err != nil {
				fail(err)
				return
			}
			// Each worker walks the full detail scan in batch-sized
			// chunks, mirroring the serial scan's morsel discipline.
			for blo := 0; blo < n; blo += relation.DefaultBatchCap {
				bhi := blo + relation.DefaultBatchCap
				if bhi > n {
					bhi = n
				}
				st.stats.Batches++
				for di := blo; di < bhi; di++ {
					if stop.Load() {
						return
					}
					if st.remaining == 0 {
						// Range short-circuit: every base entry this worker
						// owns is decided, so the rest of the scan is dead
						// work for it.
						return
					}
					if err := p.gov.Tick(); err != nil {
						fail(err)
						return
					}
					if err := st.feed(di); err != nil {
						fail(err)
						return
					}
				}
				st.flushLive()
			}
		}(w, states[w])
	}
	wg.Wait()
	if firstErr != nil {
		return nil, nil, firstErr
	}
	// Record per-worker row counts before merging collapses the locals;
	// the longest of them is how far the scan got (see Stats.DetailRows).
	workerRows := make([]int64, workers)
	var covered int64
	for w := range states {
		workerRows[w] = states[w].stats.DetailRows
		covered = max(covered, workerRows[w])
	}
	// Each worker's range is disjoint and final: concatenate.
	root := states[0]
	for w := 1; w < workers; w++ {
		st := states[w]
		copy(root.accs[st.lo:st.hi], st.accs[st.lo:st.hi])
		copy(root.decided[st.lo:st.hi], st.decided[st.lo:st.hi])
		root.stats.Merge(&st.stats)
	}
	root.stats.WorkerRows = workerRows
	root.stats.DetailRows = covered
	root.stats.ShortCircuitRows = int64(n) - covered
	stats.Merge(&root.stats)
	return root.decided, root.accs, nil
}
