package main

import (
	"fmt"
	"math/rand"

	gmdj "github.com/olaplab/gmdj"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/storage"
	"github.com/olaplab/gmdj/internal/value"
)

// The benchmark generates its own data from --seed and hands the program
// only the generated rows. The same generator feeds two sinks: the public
// gmdj.DB (untraced runs, oracle, serve) and a bare storage.Catalog that
// the traced replay drives layer by layer. Identical seeds give identical
// tables in both.

// loader is where a generator puts its tables.
type loader interface {
	create(table string, cols []gmdj.Column) error
	insert(table string, rows [][]any) error
	hashIndex(table, col string) error
}

// dbLoader loads through the public API: CreateTable, Insert,
// BuildHashIndex.
type dbLoader struct{ db *gmdj.DB }

func (l dbLoader) create(table string, cols []gmdj.Column) error {
	return l.db.CreateTable(table, cols...)
}

func (l dbLoader) insert(table string, rows [][]any) error { return l.db.Insert(table, rows...) }

func (l dbLoader) hashIndex(table, col string) error { return l.db.BuildHashIndex(table, col) }

// catLoader loads straight into a storage.Catalog, cell for cell what
// gmdj.DB.Insert stores (the generators emit only int64, float64 and
// string cells, already of the column's kind).
type catLoader struct{ cat *storage.Catalog }

func (l catLoader) create(table string, cols []gmdj.Column) error {
	rcols := make([]relation.Column, len(cols))
	for i, c := range cols {
		rcols[i] = relation.Column{Qualifier: table, Name: c.Name, Type: kindOf(c.Type)}
	}
	l.cat.Register(storage.NewTable(table, relation.New(relation.NewSchema(rcols...))))
	return nil
}

func (l catLoader) insert(table string, rows [][]any) error {
	t, err := l.cat.Table(table)
	if err != nil {
		return err
	}
	appendRows(t, rows)
	return nil
}

func (l catLoader) hashIndex(table, col string) error {
	t, err := l.cat.Table(table)
	if err != nil {
		return err
	}
	return t.BuildHashIndex(col)
}

// appendRows is the replay's equivalent of gmdj.DB.Insert: append the
// tuples and bump the table version once.
func appendRows(t *storage.Table, rows [][]any) {
	for _, row := range rows {
		tup := make(relation.Tuple, len(row))
		for i, v := range row {
			tup[i] = toValue(v)
		}
		t.Rel.Append(tup)
	}
	if len(rows) > 0 {
		t.BumpVersion()
	}
}

func kindOf(t gmdj.Type) value.Kind {
	switch t {
	case gmdj.Int:
		return value.KindInt
	case gmdj.Float:
		return value.KindFloat
	case gmdj.String:
		return value.KindString
	default:
		return value.KindBool
	}
}

func toValue(v any) value.Value {
	switch x := v.(type) {
	case int64:
		return value.Int(x)
	case float64:
		return value.Float(x)
	case string:
		return value.Str(x)
	case bool:
		return value.Bool(x)
	default:
		return value.Null
	}
}

// fromValue maps an engine cell onto the Go value gmdj.Result carries.
func fromValue(v value.Value) any {
	switch v.Kind() {
	case value.KindInt:
		return v.AsInt()
	case value.KindFloat:
		return v.AsFloat()
	case value.KindString:
		return v.AsString()
	case value.KindBool:
		return v.AsBool()
	default:
		return nil
	}
}

// chunkRows bounds how many generated rows are held at once.
const chunkRows = 8192

// emit generates n rows with gen and inserts them chunk by chunk.
func emit(l loader, table string, n int, gen func(i int) []any) error {
	buf := make([][]any, 0, min(n, chunkRows))
	for i := 0; i < n; i++ {
		buf = append(buf, gen(i))
		if len(buf) == chunkRows {
			if err := l.insert(table, buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) == 0 {
		return nil
	}
	return l.insert(table, buf)
}

var (
	tpcrStatuses = []string{"O", "F", "P"}
	tpcrSegments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
)

// tpcrNations is the nation-key domain of customer.c_nationkey.
const tpcrNations = 25

// tpcrSpec sizes a TPC-R customer/orders sample.
type tpcrSpec struct{ customers, orders int }

var ordersCols = []gmdj.Column{
	gmdj.Col("o_orderkey", gmdj.Int), gmdj.Col("o_custkey", gmdj.Int),
	gmdj.Col("o_totalprice", gmdj.Float), gmdj.Col("o_orderdate", gmdj.Int),
	gmdj.Col("o_orderstatus", gmdj.String),
}

// genTPCR loads customer and orders with dbgen-like value ranges and a
// hash index on orders.o_custkey. Prices are uniform in [1000, 451000).
func genTPCR(l loader, seed int64, s tpcrSpec) error {
	rng := rand.New(rand.NewSource(seed))
	if err := l.create("customer", []gmdj.Column{
		gmdj.Col("c_custkey", gmdj.Int), gmdj.Col("c_name", gmdj.String),
		gmdj.Col("c_nationkey", gmdj.Int), gmdj.Col("c_acctbal", gmdj.Float),
		gmdj.Col("c_mktsegment", gmdj.String),
	}); err != nil {
		return err
	}
	if err := emit(l, "customer", s.customers, func(i int) []any {
		return []any{
			int64(i + 1), fmt.Sprintf("Customer#%09d", i+1), int64(rng.Intn(tpcrNations)),
			float64(rng.Int63n(1_099_999))/100 - 999.99, tpcrSegments[rng.Intn(len(tpcrSegments))],
		}
	}); err != nil {
		return err
	}
	if err := l.create("orders", ordersCols); err != nil {
		return err
	}
	if err := emit(l, "orders", s.orders, func(i int) []any {
		return orderRow(rng, int64(i+1), s.customers)
	}); err != nil {
		return err
	}
	return l.hashIndex("orders", "o_custkey")
}

// orderRow generates one orders row with the given key.
func orderRow(rng *rand.Rand, key int64, customers int) []any {
	return []any{
		key, rng.Int63n(int64(customers)) + 1,
		1_000 + float64(rng.Int63n(45_000_000))/100, rng.Int63n(2400),
		tpcrStatuses[rng.Intn(len(tpcrStatuses))],
	}
}

// netflowSpec sizes the paper's motivating IP-flow schema plus the
// Figure 4 key tables A and B.
type netflowSpec struct {
	flows, hours, users int
	keyRows, valDomain  int
}

// wellKnownDests are the destination IPs the band queries filter on;
// one flow in eight goes to one of them.
var wellKnownDests = []string{"167.167.167.0", "168.168.168.0", "169.169.169.0"}

func genNetflow(l loader, seed int64, s netflowSpec) error {
	rng := rand.New(rand.NewSource(seed))
	if err := l.create("Hours", []gmdj.Column{
		gmdj.Col("HourDsc", gmdj.Int), gmdj.Col("StartInterval", gmdj.Int), gmdj.Col("EndInterval", gmdj.Int),
	}); err != nil {
		return err
	}
	if err := emit(l, "Hours", s.hours, func(h int) []any {
		return []any{int64(h + 1), int64(h * 60), int64((h + 1) * 60)}
	}); err != nil {
		return err
	}
	if err := l.create("Flow", flowCols); err != nil {
		return err
	}
	if err := emit(l, "Flow", s.flows, func(int) []any { return flowRow(rng, s) }); err != nil {
		return err
	}
	// A(a_key, a_val) has unique keys; B(b_key, b_val) draws keys from
	// the same domain. Values share a domain sized so that a steady share
	// of A values has no counterexample in B.
	if err := l.create("A", []gmdj.Column{gmdj.Col("a_key", gmdj.Int), gmdj.Col("a_val", gmdj.Int)}); err != nil {
		return err
	}
	if err := emit(l, "A", s.keyRows, func(i int) []any {
		return []any{int64(i), rng.Int63n(int64(s.valDomain))}
	}); err != nil {
		return err
	}
	if err := l.create("B", []gmdj.Column{gmdj.Col("b_key", gmdj.Int), gmdj.Col("b_val", gmdj.Int)}); err != nil {
		return err
	}
	return emit(l, "B", s.keyRows, func(int) []any {
		return []any{rng.Int63n(int64(s.keyRows)), rng.Int63n(int64(s.valDomain))}
	})
}

var flowCols = []gmdj.Column{
	gmdj.Col("SourceIP", gmdj.String), gmdj.Col("DestIP", gmdj.String),
	gmdj.Col("StartTime", gmdj.Int), gmdj.Col("Protocol", gmdj.String), gmdj.Col("NumBytes", gmdj.Int),
}

var protocols = []string{"HTTP", "HTTP", "HTTP", "FTP", "SMTP", "DNS"}

func flowRow(rng *rand.Rand, s netflowSpec) []any {
	src := fmt.Sprintf("10.0.%d.%d", rng.Intn(s.users)/250, rng.Intn(250)+1)
	dst := fmt.Sprintf("192.168.%d.%d", rng.Intn(256), rng.Intn(254)+1)
	if rng.Intn(8) == 0 {
		dst = wellKnownDests[rng.Intn(len(wellKnownDests))]
	}
	return []any{src, dst, rng.Int63n(int64(s.hours) * 60), protocols[rng.Intn(len(protocols))], 40 + rng.Int63n(1_000_000)}
}

// logicalBytes is the user-data size of a row: 8 bytes per number, the
// length of each string.
func logicalBytes(row []any) int64 {
	var n int64
	for _, v := range row {
		switch x := v.(type) {
		case string:
			n += int64(len(x))
		case int64, float64:
			n += 8
		case bool:
			n++
		}
	}
	return n
}
