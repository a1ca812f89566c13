package plancache

import (
	"github.com/olaplab/gmdj/internal/obs"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/spill"
)

// The result cache's cold tier: with a spill store enabled, eviction
// demotes materialized relations (the subquery sources the memo holds)
// to checksummed temp files instead of dropping them, and Get promotes
// them back on demand. SpillDown is the memory-pressure valve the
// engine pool's reclaim hook drives: it frees resident cache bytes by
// pushing the LRU tail cold, so a memory-hungry query can proceed
// without killing the cache outright.

// coldItem is one demoted entry.
type coldItem struct {
	file  *spill.File
	bytes int64 // original in-memory size estimate
}

// EnableSpill gives the cache a cold tier backed by store. Call before
// the cache is shared with running queries.
func (c *ResultCache) EnableSpill(store *spill.Store) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store = store
	if c.cold == nil {
		c.cold = map[string]*coldItem{}
	}
}

// demoteLocked moves it to the cold tier; reports whether it did.
// Failures degrade to a plain drop — the cache is an optimization and
// must never fail a query.
func (c *ResultCache) demoteLocked(it *resultItem) bool {
	if c.store == nil {
		return false
	}
	rel, ok := it.value.(*relation.Relation)
	if !ok {
		return false
	}
	f, err := c.store.Write("resultcache", spill.EncodeRelation(rel))
	if err != nil {
		return false
	}
	if old, dup := c.cold[it.key]; dup {
		old.file.Remove()
	}
	c.cold[it.key] = &coldItem{file: f, bytes: it.bytes}
	c.stats.SpillWrites++
	obs.MetricAdd("resultcache.spill_write", 1)
	return true
}

// promoteLocked loads a cold entry back into resident memory (caller
// holds the lock and has missed the resident map). The cold file is
// consumed either way; a read or decode failure degrades to a miss.
func (c *ResultCache) promoteLocked(key string) (any, bool) {
	ci, ok := c.cold[key]
	if !ok {
		return nil, false
	}
	delete(c.cold, key)
	data, err := ci.file.Read()
	if err != nil {
		return nil, false
	}
	ci.file.Remove()
	v, err := spill.DecodeRelation(data)
	if err != nil {
		return nil, false
	}
	c.stats.SpillReads++
	obs.MetricAdd("resultcache.spill_read", 1)
	el := c.ll.PushFront(&resultItem{key: key, value: v, bytes: ci.bytes})
	c.items[key] = el
	c.cur += ci.bytes
	c.shrinkLocked()
	return v, true
}

// shrinkLocked restores the resident-byte invariant, demoting or
// dropping LRU-tail entries.
func (c *ResultCache) shrinkLocked() {
	for c.cur > c.max && c.ll.Len() > 1 {
		el := c.ll.Back()
		it := el.Value.(*resultItem)
		c.stats.Evictions++
		obs.MetricAdd("resultcache.eviction", 1)
		c.demoteLocked(it)
		c.removeLocked(el)
	}
}

// SpillDown frees at least n resident bytes by demoting LRU-tail
// entries to the cold tier (dropping entries that are not relations),
// returning the bytes actually freed. It is the engine memory pool's
// reclaim hook: called when a query's reservation cannot grow, on
// whatever goroutine hit the pressure.
func (c *ResultCache) SpillDown(n int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var freed int64
	for freed < n && c.ll.Len() > 0 {
		el := c.ll.Back()
		it := el.Value.(*resultItem)
		c.demoteLocked(it)
		c.removeLocked(el)
		freed += it.bytes
		obs.MetricAdd("resultcache.spilldown", 1)
	}
	return freed
}
