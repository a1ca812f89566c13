// Package storage provides named tables, secondary indexes, a catalog,
// CSV import/export, and the durable columnar tier. It is the engine's
// "disk" in both senses: the native evaluation strategy depends on the
// secondary indexes (the paper's Figure 5 contrasts indexed and
// unindexed native/join evaluation), while persistence packs every
// table into an immutable columnar Segment — per-column blocks with
// dictionary/run-length encoding and per-block min/max zone maps —
// written as FNV-checksummed GSPL frames and committed by an atomic,
// generation-numbered manifest (see DiskStore). Recovery quarantines
// corrupt or torn segments instead of failing: unaffected tables keep
// serving and queries touching a quarantined table return
// ErrSegmentCorrupt.
package storage

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

// HashIndex is an equality index over one column, mapping value hashes
// to row positions. Probes verify equality, so hash collisions are
// harmless. NULLs are not indexed (SQL equality never matches NULL).
type HashIndex struct {
	col     int
	rel     *relation.Relation
	buckets map[uint64][]int
}

// NewHashIndex builds an index over column position col of rel.
func NewHashIndex(rel *relation.Relation, col int) *HashIndex {
	ix := &HashIndex{col: col, rel: rel, buckets: make(map[uint64][]int)}
	for i := range rel.Rows {
		ix.add(i)
	}
	return ix
}

// add indexes the row at position i.
func (ix *HashIndex) add(i int) {
	v := ix.rel.Rows[i][ix.col]
	if v.IsNull() {
		return
	}
	h := v.Hash()
	ix.buckets[h] = append(ix.buckets[h], i)
}

// Lookup returns the positions of rows whose indexed column equals v.
// Looking up NULL returns nothing.
func (ix *HashIndex) Lookup(v value.Value) []int {
	if v.IsNull() {
		return nil
	}
	cand := ix.buckets[v.Hash()]
	if len(cand) == 0 {
		return nil
	}
	out := make([]int, 0, len(cand))
	for _, i := range cand {
		if value.Equal(ix.rel.Rows[i][ix.col], v) {
			out = append(out, i)
		}
	}
	return out
}

// Column returns the indexed column position.
func (ix *HashIndex) Column() int { return ix.col }

// SortedIndex orders row positions by one column, enabling range scans
// for non-equality correlation predicates in the native strategy.
// NULLs sort first and are excluded from range results.
type SortedIndex struct {
	col   int
	rel   *relation.Relation
	order []int // row positions sorted by column value, NULLs first
	nulls int   // count of leading NULL entries
}

// NewSortedIndex builds a sorted index over column position col.
func NewSortedIndex(rel *relation.Relation, col int) *SortedIndex {
	ix := &SortedIndex{col: col, rel: rel, order: make([]int, len(rel.Rows))}
	for i := range ix.order {
		ix.order[i] = i
	}
	sort.SliceStable(ix.order, func(a, b int) bool {
		va, vb := rel.Rows[ix.order[a]][col], rel.Rows[ix.order[b]][col]
		if va.IsNull() {
			return !vb.IsNull()
		}
		if vb.IsNull() {
			return false
		}
		c, _ := value.Compare(va, vb)
		return c < 0
	})
	for _, pos := range ix.order {
		if !rel.Rows[pos][col].IsNull() {
			break
		}
		ix.nulls++
	}
	return ix
}

// Range returns the positions of rows whose column value v satisfies
// lo ≤/< v ≤/< hi. A NULL bound means unbounded on that side. NULL
// cells never match.
func (ix *SortedIndex) Range(lo value.Value, loIncl bool, hi value.Value, hiIncl bool) []int {
	vals := ix.order[ix.nulls:]
	at := func(i int) value.Value { return ix.rel.Rows[vals[i]][ix.col] }
	start := 0
	if !lo.IsNull() {
		start = sort.Search(len(vals), func(i int) bool {
			c, _ := value.Compare(at(i), lo)
			if loIncl {
				return c >= 0
			}
			return c > 0
		})
	}
	end := len(vals)
	if !hi.IsNull() {
		end = sort.Search(len(vals), func(i int) bool {
			c, _ := value.Compare(at(i), hi)
			if hiIncl {
				return c > 0
			}
			return c >= 0
		})
	}
	if start >= end {
		return nil
	}
	out := make([]int, end-start)
	copy(out, vals[start:end])
	return out
}

// Table is a named relation plus its secondary indexes. Index presence
// is part of the experimental setup: benchmarks drop indexes to study
// strategy stability, exactly as the paper does.
type Table struct {
	Name string
	Rel  *relation.Relation

	hashIdx   map[string]*HashIndex
	sortedIdx map[string]*SortedIndex

	// id is the process-unique identity assigned at registration;
	// version counts data and index mutations. Cache keys embed
	// "t<id>v<version>", so any write makes older entries unreachable.
	id      uint64
	version atomic.Uint64
	// epochs points at the owning catalog's schema epoch (nil before
	// registration) so index changes invalidate compiled plans too.
	epochs *atomic.Uint64

	// segMu guards the lazily built packed-columnar image of the table
	// and the key-hash vectors computed from it; segVersion records
	// which table version both reflect.
	segMu      sync.Mutex
	seg        *Segment
	segVersion uint64
	keyHashes  map[string]keyHashVec

	// quarantine, when set, records why the table's durable segment
	// failed recovery; queries touching the table fail with
	// ErrSegmentCorrupt until it is rewritten.
	quarantine atomic.Pointer[string]
}

// NewTable wraps a relation as a named table.
func NewTable(name string, rel *relation.Relation) *Table {
	return &Table{
		Name:      name,
		Rel:       rel,
		hashIdx:   make(map[string]*HashIndex),
		sortedIdx: make(map[string]*SortedIndex),
	}
}

// Append adds rows to the table and keeps its indexes current: the new
// positions join every hash index's buckets in place (no rebuild, so a
// small append stays cheap), sorted indexes are rebuilt, and the
// version is bumped once. It is every write path's append.
func (t *Table) Append(rows ...relation.Tuple) {
	if len(rows) == 0 {
		return
	}
	start := len(t.Rel.Rows)
	for _, row := range rows {
		t.Rel.Append(row)
	}
	for _, ix := range t.hashIdx {
		for i := start; i < len(t.Rel.Rows); i++ {
			ix.add(i)
		}
	}
	for col, ix := range t.sortedIdx {
		t.sortedIdx[col] = NewSortedIndex(t.Rel, ix.col)
	}
	t.BumpVersion()
}

// BuildHashIndex creates (or rebuilds) a hash index over the named
// column.
func (t *Table) BuildHashIndex(col string) error {
	pos, err := t.Rel.Schema.Find("", col)
	if err != nil {
		return fmt.Errorf("storage: table %s: %w", t.Name, err)
	}
	t.hashIdx[col] = NewHashIndex(t.Rel, pos)
	t.BumpVersion()
	return nil
}

// BuildSortedIndex creates (or rebuilds) a sorted index over the named
// column.
func (t *Table) BuildSortedIndex(col string) error {
	pos, err := t.Rel.Schema.Find("", col)
	if err != nil {
		return fmt.Errorf("storage: table %s: %w", t.Name, err)
	}
	t.sortedIdx[col] = NewSortedIndex(t.Rel, pos)
	t.BumpVersion()
	return nil
}

// HashIndexOn returns the hash index on col, if one exists.
func (t *Table) HashIndexOn(col string) (*HashIndex, bool) {
	ix, ok := t.hashIdx[col]
	return ix, ok
}

// SortedIndexOn returns the sorted index on col, if one exists.
func (t *Table) SortedIndexOn(col string) (*SortedIndex, bool) {
	ix, ok := t.sortedIdx[col]
	return ix, ok
}

// DropIndexes removes all secondary indexes (for the unindexed
// benchmark variants).
func (t *Table) DropIndexes() {
	t.hashIdx = make(map[string]*HashIndex)
	t.sortedIdx = make(map[string]*SortedIndex)
	t.BumpVersion()
}

// ID returns the table's process-unique identity (0 before the table
// is registered in a catalog).
func (t *Table) ID() uint64 { return t.id }

// Version returns the table's mutation counter.
func (t *Table) Version() uint64 { return t.version.Load() }

// BumpVersion records a data or index mutation: it advances the
// table's version (unreaching every memoized result keyed on the old
// one) and the owning catalog's schema epoch (invalidating compiled
// plans, which may have frozen index-based access-path choices).
// Append calls it; writers that append to Rel directly must too.
func (t *Table) BumpVersion() {
	t.version.Add(1)
	if t.epochs != nil {
		t.epochs.Add(1)
	}
}

// IndexedColumns lists columns that carry any index, sorted for
// deterministic EXPLAIN output.
func (t *Table) IndexedColumns() []string {
	set := map[string]bool{}
	for c := range t.hashIdx {
		set[c] = true
	}
	for c := range t.sortedIdx {
		set[c] = true
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
