package exec

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/relation"
)

// pipeInfo reports what one morsel-parallel pipeline actually did, for
// the operator's workers= and batches= counters.
type pipeInfo struct {
	workers int
	batches int64
}

// runMorsels drives fn over every morsel of [0, n). Workers claim
// morsels from a shared atomic counter — the morsel-driven discipline:
// scheduling is dynamic (a worker stuck on an expensive morsel does
// not stall the rest of the input) while output stays deterministic
// because callers buffer per morsel index and concatenate in order.
//
// fn(worker, morsel, lo, hi) must be safe for concurrent invocation
// with distinct worker ids; worker-local scratch is indexed by the id.
// workers comes from relation.FanOut, so each worker has a morsel to
// claim. With workers <= 1 everything runs inline on the calling goroutine —
// the serial engine, bit for bit, with no goroutine or channel cost.
//
// Failure semantics mirror the GMDJ pool: the first error (or
// recovered worker panic, surfaced as *govern.InternalError) trips a
// stop flag; other workers quit at their next claim, and the first
// error is returned.
func runMorsels(n, workers int, fn func(worker, morsel, lo, hi int) error) (int, error) {
	nm := relation.Morsels(n)
	if workers <= 1 {
		for m := 0; m < nm; m++ {
			lo := m * relation.MorselRows
			hi := lo + relation.MorselRows
			if hi > n {
				hi = n
			}
			if err := fn(0, m, lo, hi); err != nil {
				return 1, err
			}
		}
		return 1, nil
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		failOnce sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		failOnce.Do(func() { firstErr = err })
		stop.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Workers run outside the engine's panic boundary (which
			// lives on the query goroutine), so each recovers for
			// itself and feeds the same error taxonomy.
			defer func() {
				if r := recover(); r != nil {
					fail(&govern.InternalError{Panic: r, Node: fmt.Sprintf("morsel worker %d", w), Stack: debug.Stack()})
				}
			}()
			for {
				if stop.Load() {
					return
				}
				m := int(next.Add(1)) - 1
				if m >= nm {
					return
				}
				lo := m * relation.MorselRows
				hi := lo + relation.MorselRows
				if hi > n {
					hi = n
				}
				if err := fn(w, m, lo, hi); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return workers, firstErr
}

// recordPipe attaches the pipeline's workers= and batches= counters to
// the operator's stats-tree node, feeding the EXPLAIN ANALYZE drift
// column. Nil-safe through Op.Add.
func (q *query) recordPipe(info pipeInfo) {
	if q == nil || q.col == nil {
		return
	}
	op := q.col.Current()
	op.Add("workers", int64(info.workers))
	op.Add("batches", info.batches)
}
