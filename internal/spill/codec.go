package spill

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

// This file is the spill wire format: a compact binary encoding of the
// engine's data plane (values, tuples, schemas, relations).
//
// All integers are unsigned varints except float payloads (8B LE).
// Decoding is defensive — any structural violation is an error, never
// a panic — because the bytes may have survived a disk and the
// checksum is only 64 bits.

// Value encoding: kind byte, then a kind-specific payload.
func appendValue(buf []byte, v value.Value) []byte {
	buf = append(buf, byte(v.Kind()))
	switch v.Kind() {
	case value.KindNull:
	case value.KindInt:
		buf = binary.AppendUvarint(buf, uint64(v.AsInt()))
	case value.KindFloat:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.AsFloat()))
	case value.KindString:
		s := v.AsString()
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	case value.KindBool:
		b := byte(0)
		if v.AsBool() {
			b = 1
		}
		buf = append(buf, b)
	}
	return buf
}

func readValue(data []byte, pos int) (value.Value, int, error) {
	if pos >= len(data) {
		return value.Null, 0, fmt.Errorf("spill codec: truncated value")
	}
	kind := value.Kind(data[pos])
	pos++
	switch kind {
	case value.KindNull:
		return value.Null, pos, nil
	case value.KindInt:
		u, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return value.Null, 0, fmt.Errorf("spill codec: bad int varint")
		}
		return value.Int(int64(u)), pos + n, nil
	case value.KindFloat:
		if pos+8 > len(data) {
			return value.Null, 0, fmt.Errorf("spill codec: truncated float")
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
		return value.Float(f), pos + 8, nil
	case value.KindString:
		u, n := binary.Uvarint(data[pos:])
		if n <= 0 || pos+n+int(u) > len(data) {
			return value.Null, 0, fmt.Errorf("spill codec: truncated string")
		}
		pos += n
		return value.Str(string(data[pos : pos+int(u)])), pos + int(u), nil
	case value.KindBool:
		if pos >= len(data) {
			return value.Null, 0, fmt.Errorf("spill codec: truncated bool")
		}
		return value.Bool(data[pos] != 0), pos + 1, nil
	default:
		return value.Null, 0, fmt.Errorf("spill codec: unknown value kind %d", kind)
	}
}

// AppendTuple encodes one tuple (width varint + values).
func AppendTuple(buf []byte, t relation.Tuple) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(t)))
	for _, v := range t {
		buf = appendValue(buf, v)
	}
	return buf
}

// ReadTuple decodes one tuple from data at pos.
func ReadTuple(data []byte, pos int) (relation.Tuple, int, error) {
	width, n := binary.Uvarint(data[pos:])
	if n <= 0 || width > uint64(len(data)) {
		return nil, 0, fmt.Errorf("spill codec: bad tuple width")
	}
	pos += n
	t := make(relation.Tuple, width)
	for i := range t {
		var err error
		t[i], pos, err = readValue(data, pos)
		if err != nil {
			return nil, 0, err
		}
	}
	return t, pos, nil
}

// EncodeRelation encodes schema and rows.
func EncodeRelation(rel *relation.Relation) []byte {
	buf := binary.AppendUvarint(nil, uint64(rel.Schema.Len()))
	for _, c := range rel.Schema.Columns {
		buf = binary.AppendUvarint(buf, uint64(len(c.Qualifier)))
		buf = append(buf, c.Qualifier...)
		buf = binary.AppendUvarint(buf, uint64(len(c.Name)))
		buf = append(buf, c.Name...)
		buf = append(buf, byte(c.Type))
	}
	buf = binary.AppendUvarint(buf, uint64(len(rel.Rows)))
	for _, t := range rel.Rows {
		buf = AppendTuple(buf, t)
	}
	return buf
}

// DecodeRelation is the inverse of EncodeRelation.
func DecodeRelation(data []byte) (*relation.Relation, error) {
	readStr := func(pos int) (string, int, error) {
		u, n := binary.Uvarint(data[pos:])
		if n <= 0 || pos+n+int(u) > len(data) {
			return "", 0, fmt.Errorf("spill codec: truncated schema string")
		}
		pos += n
		return string(data[pos : pos+int(u)]), pos + int(u), nil
	}
	ncols, n := binary.Uvarint(data)
	if n <= 0 || ncols > uint64(len(data)) {
		return nil, fmt.Errorf("spill codec: bad column count")
	}
	pos := n
	cols := make([]relation.Column, ncols)
	for i := range cols {
		var err error
		cols[i].Qualifier, pos, err = readStr(pos)
		if err != nil {
			return nil, err
		}
		cols[i].Name, pos, err = readStr(pos)
		if err != nil {
			return nil, err
		}
		if pos >= len(data) {
			return nil, fmt.Errorf("spill codec: truncated column type")
		}
		cols[i].Type = value.Kind(data[pos])
		pos++
	}
	rel := relation.New(relation.NewSchema(cols...))
	nrows, n := binary.Uvarint(data[pos:])
	if n <= 0 || nrows > uint64(len(data)) {
		return nil, fmt.Errorf("spill codec: bad row count")
	}
	pos += n
	rel.Rows = make([]relation.Tuple, 0, nrows)
	for i := uint64(0); i < nrows; i++ {
		t, next, err := ReadTuple(data, pos)
		if err != nil {
			return nil, err
		}
		rel.Rows = append(rel.Rows, t)
		pos = next
	}
	return rel, nil
}

// EncodePartition encodes a spilled GMDJ base partition: rows paired
// with their positions in the original base relation, so the evaluator
// can reassemble results in base order after re-probing.
func EncodePartition(idx []int32, rows []relation.Tuple) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(rows)))
	for i, t := range rows {
		buf = binary.AppendUvarint(buf, uint64(idx[i]))
		buf = AppendTuple(buf, t)
	}
	return buf
}

// DecodePartition is the inverse of EncodePartition.
func DecodePartition(data []byte) ([]int32, []relation.Tuple, error) {
	nrows, n := binary.Uvarint(data)
	if n <= 0 || nrows > uint64(len(data)) {
		return nil, nil, fmt.Errorf("spill codec: bad partition row count")
	}
	pos := n
	idx := make([]int32, 0, nrows)
	rows := make([]relation.Tuple, 0, nrows)
	for i := uint64(0); i < nrows; i++ {
		u, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return nil, nil, fmt.Errorf("spill codec: bad partition index")
		}
		pos += n
		t, next, err := ReadTuple(data, pos)
		if err != nil {
			return nil, nil, err
		}
		idx = append(idx, int32(u))
		rows = append(rows, t)
		pos = next
	}
	return idx, rows, nil
}
