package storage

import (
	"fmt"

	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

// ZoneBlockRows is the block granularity of zone maps: every
// ZoneBlockRows consecutive rows of a column share one min/max entry.
const ZoneBlockRows = 1024

// ZoneMap summarizes one block of one column for scan pruning: the
// minimum and maximum non-NULL cell (both value.Null when the block
// holds only NULLs or the column is mixed-kind) and whether any cell
// is NULL.
type ZoneMap struct {
	Min, Max value.Value
	HasNull  bool
	Rows     int
}

// CanPrune reports whether a block summarized by z can be skipped for
// the predicate "cell op lit": true only when no row of the block can
// satisfy it. NULL cells never satisfy a comparison, so a block may be
// pruned even when HasNull is set. It is conservative: absent or
// incomparable statistics keep the block.
func (z ZoneMap) CanPrune(op value.CmpOp, lit value.Value) bool {
	if z.Min.IsNull() || z.Max.IsNull() || lit.IsNull() {
		return false
	}
	cmin, okMin := value.Compare(z.Min, lit)
	cmax, okMax := value.Compare(z.Max, lit)
	if !okMin || !okMax {
		return false
	}
	switch op {
	case value.EQ:
		return cmin > 0 || cmax < 0
	case value.NE:
		return cmin == 0 && cmax == 0
	case value.LT:
		return cmin >= 0
	case value.LE:
		return cmin > 0
	case value.GT:
		return cmax <= 0
	case value.GE:
		return cmax < 0
	}
	return false
}

// Segment is an immutable packed-columnar image of one table: the
// schema, every column as a ColVec, and per-block zone maps. Segments
// are what the durable store persists and what the executor's
// batch-oriented scan and the GMDJ's detail-key hashing read.
type Segment struct {
	Table  string
	Schema *relation.Schema
	Rows   int
	Cols   []*ColVec
	// Zones holds one zone-map slice per column; all columns share the
	// same block boundaries (ZoneBlockRows).
	Zones [][]ZoneMap
}

// BuildSegment packs rel into a segment.
func BuildSegment(table string, rel *relation.Relation) *Segment {
	s := &Segment{
		Table:  table,
		Schema: rel.Schema.Clone(),
		Rows:   len(rel.Rows),
		Cols:   make([]*ColVec, rel.Schema.Len()),
	}
	for c := range s.Cols {
		s.Cols[c] = buildColVec(rel, c)
	}
	s.buildZones()
	return s
}

// buildZones computes the per-block min/max statistics from the packed
// columns. Zone maps are derived data: never persisted, always rebuilt
// (BuildSegment and decodeSegment both end here), so disk corruption
// cannot desynchronize them from the cells.
func (s *Segment) buildZones() {
	s.Zones = make([][]ZoneMap, len(s.Cols))
	nblocks := (s.Rows + ZoneBlockRows - 1) / ZoneBlockRows
	for ci, col := range s.Cols {
		zones := make([]ZoneMap, nblocks)
		for b := range zones {
			lo := b * ZoneBlockRows
			hi := min(lo+ZoneBlockRows, s.Rows)
			z := ZoneMap{Rows: hi - lo}
			for i := lo; i < hi; i++ {
				if col.Nulls[i] {
					z.HasNull = true
					continue
				}
				if col.Boxed != nil {
					// Mixed columns keep no min/max: cross-kind Compare
					// is partial, so the stats could be unsound.
					continue
				}
				v := col.Value(i)
				if z.Min.IsNull() {
					z.Min, z.Max = v, v
					continue
				}
				if c, ok := value.Compare(v, z.Min); ok && c < 0 {
					z.Min = v
				}
				if c, ok := value.Compare(v, z.Max); ok && c > 0 {
					z.Max = v
				}
			}
			zones[b] = z
		}
		s.Zones[ci] = zones
	}
}

// NumBlocks returns how many zone-map blocks the segment spans.
func (s *Segment) NumBlocks() int {
	return (s.Rows + ZoneBlockRows - 1) / ZoneBlockRows
}

// Relation rebuilds the row-oriented relation the segment was packed
// from, cell for cell. Used by recovery to repopulate the catalog.
func (s *Segment) Relation() *relation.Relation {
	rel := relation.New(s.Schema.Clone())
	for i := 0; i < s.Rows; i++ {
		row := make(relation.Tuple, len(s.Cols))
		for c, col := range s.Cols {
			row[c] = col.Value(i)
		}
		rel.Append(row)
	}
	return rel
}

// KeyHashes computes the GMDJ detail-key hash vector straight from the
// packed columns: for each row, the FNV-1a mix of value.Hash over the
// key columns, with ok=false (and hash 0) when any key cell is NULL.
// The result is bit-identical to hashing the row-oriented tuples —
// both sides reduce to value.Hash on structurally equal cells — so the
// GMDJ can consume either interchangeably.
func (s *Segment) KeyHashes(key []int) (h []uint64, ok []bool) {
	h = make([]uint64, s.Rows)
	ok = make([]bool, s.Rows)
	for i := 0; i < s.Rows; i++ {
		acc := uint64(14695981039346656037)
		valid := true
		for _, c := range key {
			col := s.Cols[c]
			if col.Nulls[i] {
				valid = false
				break
			}
			acc ^= col.Value(i).Hash()
			acc *= 1099511628211
		}
		if valid {
			h[i], ok[i] = acc, true
		}
	}
	return h, ok
}

// Segment returns the table's packed columnar image, built lazily and
// cached until the table's version changes (any insert or index
// mutation). Safe for concurrent readers.
func (t *Table) Segment() *Segment {
	t.segMu.Lock()
	defer t.segMu.Unlock()
	return t.segmentLocked()
}

func (t *Table) segmentLocked() *Segment {
	if v := t.Version(); t.seg == nil || t.segVersion != v {
		t.seg = BuildSegment(t.Name, t.Rel)
		t.segVersion = v
		t.keyHashes = nil
	}
	return t.seg
}

// keyHashVec is one memoized Segment.KeyHashes result.
type keyHashVec struct {
	h  []uint64
	ok []bool
}

// KeyHashes is Segment().KeyHashes(key) memoized per table version:
// until the next write, every caller asking for the same key columns
// gets the same vectors, which callers must not modify. This is the
// GMDJ's source of detail key hashes for base-table detail relations.
// Safe for concurrent readers.
func (t *Table) KeyHashes(key []int) (h []uint64, ok []bool) {
	t.segMu.Lock()
	defer t.segMu.Unlock()
	seg := t.segmentLocked()
	k := fmt.Sprint(key)
	if v, hit := t.keyHashes[k]; hit {
		return v.h, v.ok
	}
	h, ok = seg.KeyHashes(key)
	if t.keyHashes == nil {
		t.keyHashes = make(map[string]keyHashVec)
	}
	t.keyHashes[k] = keyHashVec{h: h, ok: ok}
	return h, ok
}

// setSegment seeds the cache with a freshly decoded segment (recovery:
// the segment IS the source of the relation, so rebuilding it would be
// wasted work).
func (t *Table) setSegment(s *Segment) {
	t.segMu.Lock()
	defer t.segMu.Unlock()
	t.seg = s
	t.segVersion = t.Version()
	t.keyHashes = nil
}

// Quarantine marks the table's durable image corrupt: queries touching
// it fail with ErrSegmentCorrupt (see CheckQuarantine) while the rest
// of the catalog keeps serving.
func (t *Table) Quarantine(reason string) {
	t.quarantine.Store(&reason)
}

// QuarantineReason returns the quarantine reason, if the table is
// quarantined.
func (t *Table) QuarantineReason() (string, bool) {
	p := t.quarantine.Load()
	if p == nil {
		return "", false
	}
	return *p, true
}

// CheckQuarantine returns a typed ErrSegmentCorrupt error when the
// table is quarantined, nil otherwise. Scans call it before reading.
func (t *Table) CheckQuarantine() error {
	if reason, ok := t.QuarantineReason(); ok {
		return fmt.Errorf("storage: table %s: %w: %s", t.Name, ErrSegmentCorrupt, reason)
	}
	return nil
}
