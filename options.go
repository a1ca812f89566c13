package gmdj

import (
	"github.com/olaplab/gmdj/internal/plancache"
)

// Option configures a DB at Open time. Options replace the historical
// Set* mutators (still available, deprecated) so a fully configured
// database is built in one expression:
//
//	db := gmdj.Open(
//		gmdj.WithParallelism(4),
//		gmdj.WithBudget(gmdj.Budget{Timeout: time.Second}),
//		gmdj.WithResultCache(0),
//	)
type Option func(*DB)

// WithParallelism sets the database's morsel-driven execution degree:
// how many workers each parallel operator pipeline may use. Table
// scans are split into morsels (fixed row ranges) that workers claim
// and push through filter/projection pipelines; hash-join build and
// probe, and GMDJ detail scans, parallelize the same way. Results are
// byte-identical to serial execution at any degree.
//
//	n > 1  — run up to n workers per query
//	n == 1 — force serial execution
//	n <= 0 — keep the default
//
// The default is runtime.GOMAXPROCS(0), overridable process-wide by
// the GMDJ_PARALLEL environment variable (which explicit options and
// setters in turn override). When a memory limit is configured the
// effective degree is additionally clamped so per-worker pipeline
// scratch fits the limit. Small inputs run serial regardless — the
// morsel scheduler only spins up workers when there is enough work to
// split.
func WithParallelism(n int) Option {
	return func(db *DB) {
		if n > 0 {
			db.eng.SetParallelism(n)
		}
	}
}

// WithBudget bounds every query on the DB; see Budget.
func WithBudget(b Budget) Option {
	return func(db *DB) { db.eng.SetBudget(b) }
}

// WithUseIndexes toggles secondary-index use by the Native strategy
// (on by default).
func WithUseIndexes(on bool) Option {
	return func(db *DB) { db.eng.SetUseIndexes(on) }
}

// WithMemoizeSubqueries toggles per-query invariant reuse (Rao & Ross)
// in the Native strategy.
func WithMemoizeSubqueries(on bool) Option {
	return func(db *DB) { db.eng.SetMemoizeSubqueries(on) }
}

// WithPlanCache sets the parameterized plan cache's byte budget. The
// cache is on by default (see Open); 0 keeps the default budget, a
// negative value disables plan caching entirely.
func WithPlanCache(maxBytes int64) Option {
	return func(db *DB) {
		if maxBytes < 0 {
			db.eng.SetPlanCache(nil)
			return
		}
		db.eng.SetPlanCache(plancache.New(maxBytes))
	}
}

// WithResultCache enables cross-query memoization: uncorrelated
// subquery source materializations are cached across queries, keyed by
// table versions so any write to a dependency invalidates them. (GMDJ
// detail key hashes need no option: each table memoizes them per
// version.) maxBytes bounds the memo (0 = 64 MiB
// default); a negative value disables it (the Open default).
func WithResultCache(maxBytes int64) Option {
	return func(db *DB) {
		if maxBytes < 0 {
			db.eng.SetResultCache(nil)
			return
		}
		db.eng.SetResultCache(plancache.NewResults(maxBytes))
	}
}

// CacheStats snapshots one cache's counters (PlanCacheStats,
// ResultCacheStats).
type CacheStats struct {
	// Hits and Misses count lookups.
	Hits, Misses int64
	// Evictions counts entries dropped for space (LRU order).
	Evictions int64
	// Invalidations counts plan-cache entries dropped because the
	// catalog changed under them. (The result cache invalidates by key
	// construction, so this stays 0 there.)
	Invalidations int64
	// Entries and Bytes describe current occupancy.
	Entries int
	Bytes   int64
}

func toCacheStats(s plancache.Stats) CacheStats {
	return CacheStats{
		Hits: s.Hits, Misses: s.Misses,
		Evictions: s.Evictions, Invalidations: s.Invalidations,
		Entries: s.Entries, Bytes: s.Bytes,
	}
}

// PlanCacheStats snapshots the plan cache's counters. All zeros when
// plan caching is disabled.
func (db *DB) PlanCacheStats() CacheStats {
	if c := db.eng.PlanCache(); c != nil {
		return toCacheStats(c.Stats())
	}
	return CacheStats{}
}

// ResultCacheStats snapshots the cross-query memo's counters. All
// zeros unless WithResultCache enabled it.
func (db *DB) ResultCacheStats() CacheStats {
	if c := db.eng.ResultCache(); c != nil {
		return toCacheStats(c.Stats())
	}
	return CacheStats{}
}
