package main

import (
	"encoding/json"
	"math"
	"strconv"

	"github.com/olaplab/gmdj/internal/relation"
)

// digest is an order-insensitive fingerprint of a bag of rows: the row
// count plus the wrapping sum of per-row FNV-1a hashes. Numbers are
// canonicalised so that a value reads the same whether it came from a
// gmdj.Result (int64/float64), a decoded JSON body (json.Number) or an
// engine relation: 5, 5.0 and "5" all hash as the number 5.
type digest struct {
	Rows int    `json:"rows"`
	Sum  uint64 `json:"sum"`
}

// FNV-1a parameters (hash/fnv's 64-bit variant, inlined so that hashing
// a row allocates nothing).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// addRow adds one row, using buf as scratch, and returns buf for reuse.
func (d *digest) addRow(cells []any, buf []byte) []byte {
	h := uint64(fnvOffset64)
	for _, c := range cells {
		buf = appendCell(buf[:0], c)
		buf = append(buf, 0x1f)
		for _, b := range buf {
			h ^= uint64(b)
			h *= fnvPrime64
		}
	}
	d.Rows++
	d.Sum += h
	return buf
}

func appendCell(b []byte, c any) []byte {
	switch x := c.(type) {
	case nil:
		return append(b, 'N')
	case bool:
		if x {
			return append(b, 'T')
		}
		return append(b, 'F')
	case string:
		return append(append(b, 's'), x...)
	case int64:
		return strconv.AppendInt(append(b, 'n'), x, 10)
	case float64:
		return appendFloat(b, x)
	case json.Number:
		if i, err := x.Int64(); err == nil {
			return strconv.AppendInt(append(b, 'n'), i, 10)
		}
		if f, err := x.Float64(); err == nil {
			return appendFloat(b, f)
		}
		return append(append(b, '?'), x...)
	default:
		return append(b, '?')
	}
}

func appendFloat(b []byte, f float64) []byte {
	if f == math.Trunc(f) && math.Abs(f) < 1<<53 {
		return strconv.AppendInt(append(b, 'n'), int64(f), 10)
	}
	return strconv.AppendFloat(append(b, 'n'), f, 'g', -1, 64)
}

func digestRows(rows [][]any) digest {
	var d digest
	buf := make([]byte, 0, 64)
	for _, r := range rows {
		buf = d.addRow(r, buf)
	}
	return d
}

func digestRelation(rel *relation.Relation) digest {
	var d digest
	cells := make([]any, rel.Schema.Len())
	buf := make([]byte, 0, 64)
	for _, row := range rel.Rows {
		for i, v := range row {
			cells[i] = fromValue(v)
		}
		buf = d.addRow(cells, buf)
	}
	return d
}
