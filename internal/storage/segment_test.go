package storage

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

// cellIdentical is bit-level equality: stricter than value.Equal so
// round-trip tests catch -0.0 collapsing to +0.0 or NaN payloads being
// rewritten.
func cellIdentical(a, b value.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case value.KindNull:
		return true
	case value.KindFloat:
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
	case value.KindInt:
		return a.AsInt() == b.AsInt()
	case value.KindString:
		return a.AsString() == b.AsString()
	case value.KindBool:
		return a.AsBool() == b.AsBool()
	}
	return false
}

// trickyRel exercises every encoding path: an int column with long
// runs (RLE), a low-cardinality string column (dictionary), a float
// column with ±0.0 / NaN / ±Inf / NULLs, a bool column, and a
// mixed-kind column (boxed, no zone stats).
func trickyRel(rows int) *relation.Relation {
	s := relation.NewSchema(
		relation.Column{Qualifier: "t", Name: "run", Type: value.KindInt},
		relation.Column{Qualifier: "t", Name: "dict", Type: value.KindString},
		relation.Column{Qualifier: "t", Name: "f", Type: value.KindFloat},
		relation.Column{Qualifier: "t", Name: "b", Type: value.KindBool},
		relation.Column{Qualifier: "t", Name: "mixed", Type: value.KindInt},
	)
	r := relation.New(s)
	dict := []string{"alpha", "beta", "", "gamma"}
	floats := []value.Value{
		value.Float(0.0), value.Float(math.Copysign(0, -1)), value.Float(math.NaN()),
		value.Float(math.Inf(1)), value.Float(math.Inf(-1)), value.Null,
		value.Float(3.25), value.Float(-1e300),
	}
	mixed := []value.Value{value.Int(7), value.Str("seven"), value.Null, value.Bool(true), value.Float(7.5)}
	for i := 0; i < rows; i++ {
		r.Append(relation.Tuple{
			value.Int(int64(i / 100)), // 100-long runs
			value.Str(dict[i%len(dict)]),
			floats[i%len(floats)],
			value.Bool(i%3 == 0),
			mixed[i%len(mixed)],
		})
	}
	return r
}

func TestSegmentEncodeDecodeRoundTrip(t *testing.T) {
	for _, rows := range []int{0, 1, 7, ZoneBlockRows, ZoneBlockRows + 1, 3*ZoneBlockRows + 17} {
		rel := trickyRel(rows)
		seg := BuildSegment("tricky", rel)
		got, err := decodeSegment(encodeSegment(seg))
		if err != nil {
			t.Fatalf("rows=%d: decode: %v", rows, err)
		}
		if got.Table != "tricky" || got.Rows != rows {
			t.Fatalf("rows=%d: decoded table=%q rows=%d", rows, got.Table, got.Rows)
		}
		if !got.Schema.Equal(rel.Schema) {
			t.Fatalf("rows=%d: schema mismatch", rows)
		}
		back := got.Relation()
		for i := range rel.Rows {
			for c := range rel.Rows[i] {
				if !cellIdentical(rel.Rows[i][c], back.Rows[i][c]) {
					t.Fatalf("rows=%d: cell (%d,%d): got %v want %v", rows, i, c, back.Rows[i][c], rel.Rows[i][c])
				}
			}
		}
	}
}

func TestSegmentRelationRebuild(t *testing.T) {
	rel := trickyRel(500)
	back := BuildSegment("t", rel).Relation()
	if back.Len() != rel.Len() {
		t.Fatalf("rebuilt %d rows, want %d", back.Len(), rel.Len())
	}
	for i := range rel.Rows {
		for c := range rel.Rows[i] {
			if !cellIdentical(rel.Rows[i][c], back.Rows[i][c]) {
				t.Fatalf("cell (%d,%d): got %v want %v", i, c, back.Rows[i][c], rel.Rows[i][c])
			}
		}
	}
}

func TestSegmentDecodeRejectsCorruption(t *testing.T) {
	seg := BuildSegment("t", trickyRel(300))
	clean := encodeSegment(seg)
	if _, err := decodeSegment(clean); err != nil {
		t.Fatalf("clean bytes rejected: %v", err)
	}
	// Every single-byte flip must be rejected: each frame is
	// checksummed, and the header fields are validated.
	step := len(clean)/257 + 1
	for off := 0; off < len(clean); off += step {
		bad := append([]byte(nil), clean...)
		bad[off] ^= 0xA5
		if _, err := decodeSegment(bad); err == nil {
			t.Fatalf("flip at offset %d went undetected", off)
		}
	}
	// Truncations (torn writes) must be rejected too.
	for _, cut := range []int{0, 1, 10, len(clean) / 2, len(clean) - 1} {
		if _, err := decodeSegment(clean[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", cut)
		}
	}
	// Trailing garbage is structural corruption, not slack.
	if _, err := decodeSegment(append(append([]byte(nil), clean...), 0x00)); err == nil {
		t.Fatal("trailing byte went undetected")
	}
}

func TestZoneMapCanPrune(t *testing.T) {
	z := ZoneMap{Min: value.Int(10), Max: value.Int(20), Rows: 5}
	cases := []struct {
		op   value.CmpOp
		lit  value.Value
		want bool
	}{
		{value.EQ, value.Int(5), true},
		{value.EQ, value.Int(10), false},
		{value.EQ, value.Int(15), false},
		{value.EQ, value.Int(20), false},
		{value.EQ, value.Int(25), true},
		{value.NE, value.Int(15), false},
		{value.LT, value.Int(10), true},
		{value.LT, value.Int(11), false},
		{value.LE, value.Int(9), true},
		{value.LE, value.Int(10), false},
		{value.GT, value.Int(20), true},
		{value.GT, value.Int(19), false},
		{value.GE, value.Int(21), true},
		{value.GE, value.Int(20), false},
		{value.EQ, value.Null, false},         // NULL literal never prunes
		{value.EQ, value.Str("x"), false},     // incomparable domain keeps the block
		{value.EQ, value.Float(20.5), true},   // numeric widening prunes
		{value.EQ, value.Float(19.5), false},  // inside the range
		{value.GT, value.Float(20.25), true},  // max 20 cannot exceed 20.25
		{value.LT, value.Float(9.75), true},   // min 10 cannot be below 9.75
		{value.GE, value.Float(19.75), false}, // max 20 satisfies
	}
	for _, c := range cases {
		if got := z.CanPrune(c.op, c.lit); got != c.want {
			t.Errorf("CanPrune(%v, %v) = %v, want %v", c.op, c.lit, got, c.want)
		}
	}
	// A point block prunes NE at its value.
	pt := ZoneMap{Min: value.Int(7), Max: value.Int(7), Rows: 3}
	if !pt.CanPrune(value.NE, value.Int(7)) {
		t.Error("point block should prune NE at its only value")
	}
	if pt.CanPrune(value.NE, value.Int(8)) {
		t.Error("point block must keep NE at a different value")
	}
	// Missing statistics (all-NULL or boxed block) never prune.
	empty := ZoneMap{Rows: 4, HasNull: true}
	for _, op := range []value.CmpOp{value.EQ, value.NE, value.LT, value.LE, value.GT, value.GE} {
		if empty.CanPrune(op, value.Int(1)) {
			t.Errorf("stat-less block pruned for %v", op)
		}
	}
}

// TestZoneMapPruningSound is the property behind the executor's scan
// pruning: whenever a block's zone map prunes a predicate, no row of
// that block satisfies it.
func TestZoneMapPruningSound(t *testing.T) {
	rel := trickyRel(3*ZoneBlockRows + 123)
	seg := BuildSegment("t", rel)
	ops := []value.CmpOp{value.EQ, value.NE, value.LT, value.LE, value.GT, value.GE}
	lits := []value.Value{
		value.Int(0), value.Int(3), value.Int(31), value.Int(-1),
		value.Float(2.5), value.Float(0), value.Str("beta"), value.Str(""),
		value.Bool(true), value.Null,
	}
	for ci := range seg.Cols {
		for b, z := range seg.Zones[ci] {
			lo, hi := b*ZoneBlockRows, min((b+1)*ZoneBlockRows, seg.Rows)
			for _, op := range ops {
				for _, lit := range lits {
					if !z.CanPrune(op, lit) {
						continue
					}
					for i := lo; i < hi; i++ {
						v := seg.Cols[ci].Value(i)
						if v.IsNull() {
							continue // NULL never satisfies a comparison
						}
						c, ok := value.Compare(v, lit)
						if !ok {
							t.Fatalf("col %d block %d: pruned %v %v but row %d is incomparable", ci, b, op, lit, i)
						}
						if cmpSatisfied(op, c) {
							t.Fatalf("col %d block %d: pruned %v %v but row %d (=%v) satisfies it", ci, b, op, lit, i, v)
						}
					}
				}
			}
		}
	}
}

func cmpSatisfied(op value.CmpOp, c int) bool {
	switch op {
	case value.EQ:
		return c == 0
	case value.NE:
		return c != 0
	case value.LT:
		return c < 0
	case value.LE:
		return c <= 0
	case value.GT:
		return c > 0
	case value.GE:
		return c >= 0
	}
	return false
}

// TestSegmentKeyHashes pins the packed-column hash vector to the
// row-oriented FNV-1a mix the GMDJ computes: bit-identical hashes,
// ok=false exactly when a key cell is NULL.
func TestSegmentKeyHashes(t *testing.T) {
	rel := trickyRel(700)
	seg := BuildSegment("t", rel)
	keys := [][]int{{0}, {1}, {0, 2}, {4}, {2, 4, 1}, {}}
	for _, key := range keys {
		h, ok := seg.KeyHashes(key)
		if len(h) != rel.Len() || len(ok) != rel.Len() {
			t.Fatalf("key %v: vector lengths %d/%d, want %d", key, len(h), len(ok), rel.Len())
		}
		for i, row := range rel.Rows {
			acc := uint64(14695981039346656037)
			valid := true
			for _, c := range key {
				if row[c].IsNull() {
					valid = false
					break
				}
				acc ^= row[c].Hash()
				acc *= 1099511628211
			}
			if valid != ok[i] {
				t.Fatalf("key %v row %d: ok=%v, want %v", key, i, ok[i], valid)
			}
			if valid && h[i] != acc {
				t.Fatalf("key %v row %d: hash %#x, want %#x", key, i, h[i], acc)
			}
			if !valid && h[i] != 0 {
				t.Fatalf("key %v row %d: null-key hash should be 0, got %#x", key, i, h[i])
			}
		}
	}
}

func TestTableSegmentCachedPerVersion(t *testing.T) {
	tab := NewTable("t", trickyRel(50))
	s1 := tab.Segment()
	if s2 := tab.Segment(); s2 != s1 {
		t.Fatal("segment rebuilt without a version change")
	}
	tab.Rel.Append(make(relation.Tuple, tab.Rel.Schema.Len()))
	tab.BumpVersion()
	s3 := tab.Segment()
	if s3 == s1 {
		t.Fatal("segment not rebuilt after BumpVersion")
	}
	if s3.Rows != 51 {
		t.Fatalf("rebuilt segment has %d rows, want 51", s3.Rows)
	}
}

// TestTableKeyHashesMemo: at one version KeyHashes hands every caller
// the same backing arrays; an Append makes it compute new vectors,
// equal to Segment.KeyHashes over the grown table.
func TestTableKeyHashesMemo(t *testing.T) {
	tab := NewTable("t", trickyRel(50))
	// Concurrent queries share the memo; -race checks its locking.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tab.KeyHashes([]int{g % 2})
		}()
	}
	wg.Wait()
	key := []int{0, 1}
	h1, ok1 := tab.KeyHashes(key)
	h2, ok2 := tab.KeyHashes(key)
	if &h1[0] != &h2[0] || &ok1[0] != &ok2[0] {
		t.Fatal("KeyHashes recomputed at an unchanged version")
	}
	tab.Append(trickyRel(51).Rows[50])
	h3, ok3 := tab.KeyHashes(key)
	if &h3[0] == &h1[0] || &ok3[0] == &ok1[0] {
		t.Fatal("KeyHashes served the old version's vectors after Append")
	}
	wantH, wantOK := BuildSegment("t", tab.Rel).KeyHashes(key)
	if !reflect.DeepEqual(h3, wantH) || !reflect.DeepEqual(ok3, wantOK) {
		t.Fatalf("memoized vectors differ from Segment.KeyHashes:\n%v %v\n%v %v", h3, ok3, wantH, wantOK)
	}
}

func TestQuarantine(t *testing.T) {
	tab := NewTable("q", trickyRel(5))
	if err := tab.CheckQuarantine(); err != nil {
		t.Fatalf("fresh table quarantined: %v", err)
	}
	tab.Quarantine("checksum mismatch in q-1-0.seg")
	reason, ok := tab.QuarantineReason()
	if !ok || reason == "" {
		t.Fatal("quarantine reason missing")
	}
	err := tab.CheckQuarantine()
	if err == nil {
		t.Fatal("CheckQuarantine nil on quarantined table")
	}
	if !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("quarantine error %v does not wrap ErrSegmentCorrupt", err)
	}
}

func FuzzSegmentDecode(f *testing.F) {
	f.Add(encodeSegment(BuildSegment("t", trickyRel(40))))
	f.Add(encodeSegment(BuildSegment("", trickyRel(0))))
	f.Add(encodeSegment(BuildSegment("big", trickyRel(ZoneBlockRows+9))))
	f.Add([]byte{})
	f.Add([]byte("GSPL garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := decodeSegment(data)
		if err != nil {
			return
		}
		// Whatever decodes must be internally consistent: column count
		// and lengths match the header, and rebuilding rows is safe.
		if len(seg.Cols) != seg.Schema.Len() {
			t.Fatalf("decoded %d columns for a %d-column schema", len(seg.Cols), seg.Schema.Len())
		}
		for c, col := range seg.Cols {
			if col.Len() != seg.Rows {
				t.Fatalf("column %d has %d rows, header says %d", c, col.Len(), seg.Rows)
			}
		}
		_ = seg.Relation()
		if len(seg.Cols) > 0 {
			_, _ = seg.KeyHashes([]int{0})
		}
	})
}

func FuzzManifestDecode(f *testing.F) {
	seg := BuildSegment("t", trickyRel(3))
	f.Add(encodeManifest(&manifest{Generation: 4, Entries: []manifestEntry{
		{Table: "t", File: "t-4-0.seg", Rows: 3, Schema: seg.Schema},
	}}))
	f.Add(encodeManifest(&manifest{Generation: 1}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		for i, e := range m.Entries {
			if e.Table == "" || e.File == "" {
				t.Fatalf("entry %d decoded with empty table/file", i)
			}
		}
	})
}
