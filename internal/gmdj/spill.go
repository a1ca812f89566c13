package gmdj

import (
	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/spill"
)

// This file is the memory-adaptive evaluation regime: when the query's
// reservation cannot hold the whole base state, the base relation is
// partitioned by the top bits of each row's hash ("hash prefix"), cold
// partitions are encoded to checksummed temp files, and each partition
// is evaluated independently with its own bounded state — at the cost
// of one extra full detail scan per additional partition. The paper's
// one-scan guarantee (Prop. 4.1) relaxes to 1+k scans; Stats reports k
// in ExtraDetailScans. Output stays byte-identical to in-memory
// evaluation because every partition row remembers its original base
// position and a single emit pass walks the full base in order.

// minPartitionBytes floors the per-partition budget so pathological
// reservations cannot explode the partition count.
const minPartitionBytes = 16 << 10

// maxSpillParts caps the initial fan-out; worklist splitting handles
// partitions that still do not fit.
const maxSpillParts = 256

// spillPart is one worklist item: a slice of the base relation,
// resident (rows != nil) or evicted to a spill file.
type spillPart struct {
	idx   []int32 // original base positions
	rows  []relation.Tuple
	file  *spill.File
	n     int // row count (valid for both forms)
	depth int // split depth, bounds recursion
}

// evaluateSpilled is Evaluate's degraded regime. est is the rejected
// whole-state estimate; opts.Mem and opts.Spill are non-nil.
func evaluateSpilled(base, detail *relation.Relation, conds []algebra.GMDJCond, opts Options, est int64) (*relation.Relation, error) {
	nBase := len(base.Rows)
	perRow := est / int64(nBase)
	if perRow < 1 {
		perRow = 1
	}

	// Size the initial fan-out so each partition's state fits the
	// reservation's current headroom (floored to keep partition count
	// sane when the reservation is tiny).
	target := opts.Mem.Available() / 2
	if target < minPartitionBytes {
		target = minPartitionBytes
	}
	parts := 1
	for parts < maxSpillParts && est/int64(parts) > target {
		parts *= 2
	}
	if parts < 2 {
		parts = 2
	}
	bits := 0
	for 1<<bits < parts {
		bits++
	}

	// Partition base rows by hash prefix (top bits of the tuple hash).
	groups := make([][]int32, parts)
	for bi, row := range base.Rows {
		pi := int(row.Hash() >> (64 - uint(bits)))
		groups[pi] = append(groups[pi], int32(bi))
	}

	// The first non-empty partition stays resident; the rest are
	// encoded to spill files. Deferred cleanup removes whatever is
	// still on disk when we leave — on success (files are consumed as
	// partitions are processed), on error, on cancellation, and on
	// panic unwinding through this frame alike.
	var work []spillPart
	var liveFiles []*spill.File
	defer func() {
		for _, f := range liveFiles {
			f.Remove()
		}
	}()
	resident := true
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		rows := make([]relation.Tuple, len(g))
		for i, bi := range g {
			rows[i] = base.Rows[bi]
		}
		if resident {
			resident = false
			work = append(work, spillPart{idx: g, rows: rows, n: len(g)})
			continue
		}
		f, err := opts.Spill.Write("gmdj-part", spill.EncodePartition(g, rows))
		if err != nil {
			return nil, err
		}
		liveFiles = append(liveFiles, f)
		work = append(work, spillPart{file: f, n: len(g)})
		if opts.Stats != nil {
			opts.Stats.SpillPartitions++
			opts.Stats.SpillBytesWritten += f.Bytes
		}
	}

	// Compile once against an empty base to obtain the output schema
	// and aggregate layout for the final emit (no per-row state is
	// built), and to count fallback conditions once rather than per
	// partition.
	pe, err := compile(&relation.Relation{Schema: base.Schema}, detail, conds, opts.Completion)
	if err != nil {
		return nil, err
	}
	pe.base = base
	pe.gov, pe.faults, pe.tracer, pe.live = opts.Gov, opts.Faults, opts.Tracer, opts.Live
	if opts.Stats != nil {
		for _, c := range pe.conds {
			if c.index == nil && len(c.baseKey) == 0 {
				opts.Stats.FallbackConds++
			}
		}
	}

	decided := make([]int8, nBase)
	accs := make([][]agg.Accumulator, nBase)
	scans := 0

	for len(work) > 0 {
		part := work[0]
		work = work[1:]
		if err := opts.Gov.Check(); err != nil {
			return nil, err
		}
		if part.file != nil {
			payload, err := part.file.Read()
			if err != nil {
				return nil, err
			}
			if opts.Stats != nil {
				opts.Stats.SpillBytesRead += part.file.Bytes
			}
			part.file.Remove()
			for i, f := range liveFiles {
				if f == part.file {
					liveFiles = append(liveFiles[:i], liveFiles[i+1:]...)
					break
				}
			}
			part.idx, part.rows, err = spill.DecodePartition(payload)
			if err != nil {
				return nil, err
			}
		}

		// Charge this partition's state; a partition that still does not
		// fit splits in two and both halves re-enter the worklist. A
		// single row that does not fit runs uncharged — it cannot shrink,
		// and refusing it would turn degradation back into a kill.
		partEst := int64(part.n) * perRow
		charged := int64(0)
		if err := opts.Mem.Grow(partEst); err != nil {
			if part.n > 1 && part.depth < 20 {
				mid := part.n / 2
				work = append(work,
					spillPart{idx: part.idx[:mid], rows: part.rows[:mid], n: mid, depth: part.depth + 1},
					spillPart{idx: part.idx[mid:], rows: part.rows[mid:], n: part.n - mid, depth: part.depth + 1},
				)
				continue
			}
		} else {
			charged = partEst
		}

		chunk := &relation.Relation{Schema: base.Schema, Rows: part.rows}
		p, err := prepare(chunk, detail, conds, opts)
		if err != nil {
			opts.Mem.Shrink(charged)
			return nil, err
		}
		d, a, err := p.run(opts.Workers, opts.Stats)
		opts.Mem.Shrink(charged)
		if err != nil {
			return nil, err
		}
		for i, bi := range part.idx {
			decided[bi] = d[i]
			accs[bi] = a[i]
		}
		scans++
	}
	if opts.Stats != nil && scans > 1 {
		opts.Stats.ExtraDetailScans += int64(scans - 1)
	}
	return pe.emit(decided, accs)
}
