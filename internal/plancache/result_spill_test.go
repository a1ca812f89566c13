package plancache

import (
	"path/filepath"
	"reflect"
	"testing"

	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/spill"
	"github.com/olaplab/gmdj/internal/value"
)

func coldRelation(tag string) *relation.Relation {
	rel := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "t", Name: "k", Type: value.KindInt},
		relation.Column{Qualifier: "t", Name: "tag", Type: value.KindString},
	))
	rel.Append(relation.Tuple{value.Int(1), value.Str(tag)})
	rel.Append(relation.Tuple{value.Int(2), value.Str(tag + "!")})
	return rel
}

func newSpillCache(t *testing.T, maxBytes int64, faults *govern.Injector) (*ResultCache, *spill.Store) {
	t.Helper()
	store, err := spill.NewStore(filepath.Join(t.TempDir(), "scratch"), faults)
	if err != nil {
		t.Fatal(err)
	}
	c := NewResults(maxBytes)
	c.EnableSpill(store)
	return c, store
}

// TestColdTierDemotePromote: an eviction with a spill store demotes
// the encodable value to disk, and a later Get promotes it back as a
// hit instead of a miss.
func TestColdTierDemotePromote(t *testing.T) {
	c, store := newSpillCache(t, 100, nil)
	a := coldRelation("a")
	c.Put("a", a, 60)
	c.Put("b", coldRelation("b"), 60) // evicts a -> cold tier

	s := c.Stats()
	if s.SpillWrites != 1 || s.ColdEntries != 1 || s.ColdBytes <= 0 {
		t.Fatalf("stats after demote = %+v", s)
	}
	if store.LiveFiles() != 1 {
		t.Fatalf("live files = %d, want 1", store.LiveFiles())
	}

	v, ok := c.Get("a")
	if !ok {
		t.Fatal("cold entry not promoted")
	}
	got := v.(*relation.Relation)
	if !reflect.DeepEqual(a.Rows, got.Rows) {
		t.Fatalf("promoted rows differ: %v vs %v", a.Rows, got.Rows)
	}
	// Promotion re-admits "a" within the byte budget, which evicts "b"
	// to the cold tier in turn — a's file is consumed, b's is written.
	s = c.Stats()
	if s.SpillReads != 1 || s.ColdEntries != 1 {
		t.Fatalf("stats after promote = %+v", s)
	}
	if store.LiveFiles() != 1 {
		t.Fatalf("live files after promote = %d, want 1 (b cold)", store.LiveFiles())
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("b lost entirely during promotion shuffle")
	}
}

// TestColdTierUnencodableDrops: values that are not relations are
// dropped on eviction, not spilled.
func TestColdTierUnencodableDrops(t *testing.T) {
	c, store := newSpillCache(t, 100, nil)
	c.Put("a", 42, 60) // plain int: not a relation
	c.Put("b", coldRelation("b"), 60)
	if _, ok := c.Get("a"); ok {
		t.Fatal("unencodable value survived eviction")
	}
	if s := c.Stats(); s.SpillWrites != 0 || s.ColdEntries != 0 {
		t.Fatalf("unencodable value hit the cold tier: %+v", s)
	}
	if store.LiveFiles() != 0 {
		t.Fatalf("stray cold file: %d", store.LiveFiles())
	}
}

// TestColdTierPutSupersedes: a fresh Put for a key with a demoted copy
// must remove the stale cold file.
func TestColdTierPutSupersedes(t *testing.T) {
	c, store := newSpillCache(t, 100, nil)
	c.Put("a", coldRelation("old"), 60)
	c.Put("b", coldRelation("b"), 60) // a -> cold
	if store.LiveFiles() != 1 {
		t.Fatalf("live files = %d, want 1", store.LiveFiles())
	}
	fresh := coldRelation("new")
	c.Put("a", fresh, 60) // supersedes cold copy, evicts b
	v, ok := c.Get("a")
	if !ok {
		t.Fatal("fresh value missing")
	}
	if v.(*relation.Relation).Rows[0][1].AsString() != "new" {
		t.Fatalf("stale value won: %v", v)
	}
}

// TestColdTierSpillDown: the pool reclaim hook frees resident bytes by
// demoting LRU-tail entries.
func TestColdTierSpillDown(t *testing.T) {
	c, store := newSpillCache(t, 1000, nil)
	c.Put("a", coldRelation("a"), 100)
	c.Put("b", coldRelation("b"), 100)
	c.Put("c", coldRelation("c"), 100)

	freed := c.SpillDown(150) // demotes LRU tail: a, then b
	if freed < 150 {
		t.Fatalf("freed = %d, want >= 150", freed)
	}
	s := c.Stats()
	if s.Bytes != 100 || s.Entries != 1 {
		t.Fatalf("resident after spilldown = %+v", s)
	}
	if s.ColdEntries != 2 || store.LiveFiles() != 2 {
		t.Fatalf("cold tier after spilldown = %+v, live %d", s, store.LiveFiles())
	}
	// Demoted entries remain reachable.
	for _, k := range []string{"a", "b", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("key %s lost after spilldown", k)
		}
	}
}

// TestColdTierPurge removes cold files along with resident entries.
func TestColdTierPurge(t *testing.T) {
	c, store := newSpillCache(t, 100, nil)
	c.Put("a", coldRelation("a"), 60)
	c.Put("b", coldRelation("b"), 60) // a -> cold
	c.Purge()
	if s := c.Stats(); s.Entries != 0 || s.ColdEntries != 0 {
		t.Fatalf("purge left %+v", s)
	}
	if store.LiveFiles() != 0 {
		t.Fatalf("purge leaked %d cold files", store.LiveFiles())
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("purged cold entry resurrected")
	}
}

// TestColdTierWriteFaultDegrades: a spill-write failure during
// demotion degrades to a plain drop — queries keep working, the cache
// just misses.
func TestColdTierWriteFaultDegrades(t *testing.T) {
	in, err := govern.ParseFaults("spill.write=enospc")
	if err != nil {
		t.Fatal(err)
	}
	c, store := newSpillCache(t, 100, in)
	c.Put("a", coldRelation("a"), 60)
	c.Put("b", coldRelation("b"), 60) // eviction tries to demote, write fails
	if _, ok := c.Get("a"); ok {
		t.Fatal("failed demotion still served the value")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("resident value lost")
	}
	if s := c.Stats(); s.ColdEntries != 0 || s.SpillWrites != 0 {
		t.Fatalf("failed demote counted: %+v", s)
	}
	if store.LiveFiles() != 0 {
		t.Fatalf("failed demote leaked %d files", store.LiveFiles())
	}
}

// TestColdTierReadFaultDegrades: a corrupt cold file degrades the Get
// to a miss and the file is gone either way.
func TestColdTierReadFaultDegrades(t *testing.T) {
	in, err := govern.ParseFaults("spill.read=corrupt")
	if err != nil {
		t.Fatal(err)
	}
	c, store := newSpillCache(t, 100, in)
	c.Put("a", coldRelation("a"), 60)
	c.Put("b", coldRelation("b"), 60) // a -> cold
	if _, ok := c.Get("a"); ok {
		t.Fatal("corrupt cold entry served")
	}
	if store.LiveFiles() != 0 {
		t.Fatalf("corrupt cold file survived: %d", store.LiveFiles())
	}
	// Subsequent Gets are plain misses, not errors.
	if _, ok := c.Get("a"); ok {
		t.Fatal("ghost entry")
	}
}
