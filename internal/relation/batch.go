package relation

import (
	"fmt"
	"runtime"

	"github.com/olaplab/gmdj/internal/value"
)

// DefaultBatchCap is the number of rows a Batch holds. The figure is a
// cache-residency compromise: at ~40 bytes per value a 1024-row batch
// of a handful of columns stays within L2 while amortizing per-batch
// bookkeeping (bounds checks, governance ticks, channel-free morsel
// claims) over a thousand rows.
const DefaultBatchCap = 1024

// MorselRows is how many input rows one morsel covers: a few batches'
// worth, small enough that workers rebalance across skewed predicates,
// large enough that the atomic claim is amortized into noise.
const MorselRows = 4 * DefaultBatchCap

// Morsels returns how many morsels cover n input rows.
func Morsels(n int) int {
	if n <= 0 {
		return 0
	}
	return (n-1)/MorselRows + 1
}

// FanOut is the engine's one parallel fan-out rule: how many workers
// an operator over n input rows uses at the configured parallelism.
// Inputs under two morsels run serially (goroutines would cost more
// than they save), every worker gets at least one morsel, and the
// degree never exceeds 4×GOMAXPROCS. The morsel pipelines apply it to
// their input rows and the GMDJ to its base rows (the relation it
// shards).
func FanOut(parallelism, n int) int {
	if parallelism <= 1 || n < 2*MorselRows {
		return 1
	}
	return min(parallelism, Morsels(n), 4*runtime.GOMAXPROCS(0))
}

// Batch is one columnar chunk of rows flowing through the batched
// operator API (exec.NextBatch). Its storage — the row-reference
// vector and the per-column value vectors — is allocated once at the
// batch's capacity and reused across NextBatch calls, so a steady-state
// scan→filter→probe pipeline performs no per-row allocations.
//
// A batch carries rows in two coupled representations:
//
//   - Row references (always present): Row(i) returns the i-th tuple.
//     When an operator appends an existing materialized tuple
//     (AppendRef), the reference is shared — exactly the tuple-sharing
//     discipline of the materializing executor, which is what makes
//     batched and serial execution byte-identical and keeps the hot
//     path allocation-free.
//   - Column vectors (materialized on demand): Columns() transposes the
//     batch into fixed-capacity per-column vectors, reused across
//     calls. Vectorized consumers (hash-key computation, projection
//     evaluation over many rows) read these; row-shaped consumers never
//     pay for the transpose.
type Batch struct {
	schema *Schema
	rows   []Tuple // length cap; first n entries valid
	cols   [][]value.Value
	colsOK bool // cols mirror rows[:n]
	n      int
}

// NewBatch allocates a batch for the given schema. capacity <= 0 uses
// DefaultBatchCap.
func NewBatch(s *Schema, capacity int) *Batch {
	if capacity <= 0 {
		capacity = DefaultBatchCap
	}
	return &Batch{schema: s, rows: make([]Tuple, capacity)}
}

// Schema returns the batch's schema.
func (b *Batch) Schema() *Schema { return b.schema }

// Bind repoints the batch at a new schema (e.g. when a reused batch
// moves to the next operator's output). The width must match any rows
// still in the batch, so Bind implies Reset.
func (b *Batch) Bind(s *Schema) {
	b.schema = s
	b.Reset()
}

// Len returns the number of rows currently in the batch.
func (b *Batch) Len() int { return b.n }

// Cap returns the row capacity.
func (b *Batch) Cap() int { return len(b.rows) }

// Full reports whether the batch has reached capacity.
func (b *Batch) Full() bool { return b.n == len(b.rows) }

// Reset empties the batch, keeping all storage for reuse.
func (b *Batch) Reset() {
	b.n = 0
	b.colsOK = false
}

// AppendRef appends a row by reference: the tuple is shared, not
// copied, so downstream operators that emit it preserve the serial
// engine's tuple identity. This is the hot-path append — no allocation,
// one slice-header store.
func (b *Batch) AppendRef(t Tuple) {
	if b.n == len(b.rows) {
		panic(fmt.Sprintf("relation: append to full batch (cap %d)", len(b.rows)))
	}
	b.rows[b.n] = t
	b.n++
	b.colsOK = false
}

// Row returns the i-th row (shared reference).
func (b *Batch) Row(i int) Tuple { return b.rows[i] }

// Rows returns the valid prefix of the row-reference vector. The slice
// aliases batch storage: it is invalidated by Reset and the next
// NextBatch call.
func (b *Batch) Rows() []Tuple { return b.rows[:b.n] }

// Truncate shortens the batch to n rows (a filter's in-place compact
// ends with Truncate).
func (b *Batch) Truncate(n int) {
	if n < 0 || n > b.n {
		panic(fmt.Sprintf("relation: truncate batch of %d rows to %d", b.n, n))
	}
	b.n = n
	b.colsOK = false
}

// SetRow replaces the i-th row reference (filters compact passing rows
// toward the front with SetRow + Truncate).
func (b *Batch) SetRow(i int, t Tuple) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("relation: SetRow(%d) outside batch of %d rows", i, b.n))
	}
	b.rows[i] = t
	b.colsOK = false
}

// Columns materializes and returns the columnar view: one fixed-
// capacity vector per schema column, valid for rows [0, Len()). The
// vectors are allocated once (first call) and reused; the transpose
// runs only when the batch changed since the last call. The returned
// slices alias batch storage.
func (b *Batch) Columns() [][]value.Value {
	w := b.schema.Len()
	if b.cols == nil {
		b.cols = make([][]value.Value, w)
		for c := range b.cols {
			b.cols[c] = make([]value.Value, len(b.rows))
		}
	}
	if !b.colsOK {
		for i := 0; i < b.n; i++ {
			row := b.rows[i]
			for c := 0; c < w; c++ {
				b.cols[c][i] = row[c]
			}
		}
		b.colsOK = true
	}
	out := make([][]value.Value, w)
	for c := range out {
		out[c] = b.cols[c][:b.n]
	}
	return out
}

// AppendTo appends every row of the batch to a relation, by reference.
func (b *Batch) AppendTo(r *Relation) {
	for i := 0; i < b.n; i++ {
		r.Append(b.rows[i])
	}
}
