package main

import (
	"fmt"
	"math/rand"
	"strings"

	gmdj "github.com/olaplab/gmdj"
)

// workload is one set of inputs the benchmark runs. Every workload is a
// closed loop: a client sends its next operation only after the previous
// one returned.
type workload struct {
	name string
	// load generates the dataset from the seed.
	load func(l loader, seed int64) error
	// pool generates the query instances the loop cycles through; each
	// has a Native-strategy oracle digest computed before timing.
	pool func(rng *rand.Rand) []string
	// planCacheBytes bounds the DB's plan cache (0 = the Open default).
	planCacheBytes int64
	// clients is the number of concurrent closed-loop clients.
	clients int
	// http routes queries through the olapd handler on a loopback
	// listener instead of calling gmdj.DB directly.
	http bool
	// freshEvery, when positive, makes every freshEvery-th query a
	// structurally new template (fresh aliases) that misses the plan
	// cache; its result equals the pool instance it was derived from.
	freshEvery int
	// writeTable receives the workload's acknowledged writes (Insert
	// then Checkpoint) of writeBatch rows made by writeRow. A writing
	// workload's DB is durable from set-up on, and its loop alternates a
	// write with each query. The other workloads write nothing; their
	// loaded dataset is checkpointed once the loop is over.
	writeTable string
	writeBatch int
	writeRow   func(rng *rand.Rand, i int) []any
	// hashTable.hashCol is the detail key the GMDJ hashes with
	// Segment.KeyHashes on this workload (empty when none).
	hashTable, hashCol string
}

// Workload sizes. The TPC-R detail sample keeps customer and orders
// (the tables Figures 2, 3 and 5 read) at 10k/100k; lineitem
// is left out because no query reads it.
var (
	tpcrBig     = tpcrSpec{customers: 10_000, orders: 100_000}
	tpcrSmall   = tpcrSpec{customers: 300, orders: 3_000}
	tpcrIngest  = tpcrSpec{customers: 2_000, orders: 20_000}
	netflowSize = netflowSpec{flows: 100_000, hours: 24, users: 1000, keyRows: 1_500, valDomain: 1_200}
)

var workloads = []*workload{
	{
		name:      "tpcr-exists",
		load:      func(l loader, seed int64) error { return genTPCR(l, seed, tpcrBig) },
		pool:      tpcrExistsPool,
		clients:   1,
		hashTable: "orders", hashCol: "o_custkey",
	},
	{
		name:    "netflow-theta",
		load:    func(l loader, seed int64) error { return genNetflow(l, seed, netflowSize) },
		pool:    netflowThetaPool,
		clients: 1,
	},
	{
		name:           "serve-short",
		load:           func(l loader, seed int64) error { return genTPCR(l, seed, tpcrSmall) },
		pool:           serveShortPool,
		planCacheBytes: 32 << 10,
		clients:        2,
		http:           true,
		freshEvery:     8,
		hashTable:      "orders", hashCol: "o_custkey",
	},
	{
		name:       "ingest-durable",
		load:       func(l loader, seed int64) error { return genTPCR(l, seed, tpcrIngest) },
		pool:       ingestPool,
		clients:    1,
		writeTable: "orders",
		writeBatch: 100,
		writeRow:   ordersAfter(tpcrIngest),
		hashTable:  "orders", hashCol: "o_custkey",
	},
}

// ordersAfter generates new orders rows keyed after the sample's own.
func ordersAfter(s tpcrSpec) func(rng *rand.Rand, i int) []any {
	return func(rng *rand.Rand, i int) []any { return orderRow(rng, int64(s.orders+i+1), s.customers) }
}

// writes reports whether the workload's loop writes.
func (w *workload) writes() bool { return w.writeBatch > 0 }

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// price draws an o_totalprice threshold in [lo, hi).
func price(rng *rand.Rand, lo, hi int) int { return lo + rng.Intn(hi-lo) }

// fig5 is the paper's Figure 5 shape: two tree-nested EXISTS over the
// same detail table with disjoint predicates, which gmdj-opt coalesces
// into one scan.
func fig5(rng *rand.Rand, where string) string {
	s1, s2 := tpcrStatuses[rng.Intn(3)], tpcrStatuses[rng.Intn(3)]
	return fmt.Sprintf(`SELECT c.c_custkey FROM customer c WHERE %sEXISTS (SELECT * FROM orders o1 WHERE o1.o_custkey = c.c_custkey AND o1.o_orderstatus = '%s' AND o1.o_totalprice > %d) AND EXISTS (SELECT * FROM orders o2 WHERE o2.o_custkey = c.c_custkey AND o2.o_orderstatus = '%s' AND o2.o_totalprice < %d)`,
		where, s1, price(rng, 250_000, 350_000), s2, price(rng, 100_000, 200_000))
}

// tpcrExistsPool: Figure 2 (EXISTS), Figure 3 (scalar AVG comparison)
// and Figure 5 (coalesced tree-nested EXISTS), eight instances each.
func tpcrExistsPool(rng *rand.Rand) []string {
	var out []string
	for i := 0; i < 8; i++ {
		out = append(out,
			fmt.Sprintf(`SELECT c.c_custkey FROM customer c WHERE EXISTS (SELECT * FROM orders o WHERE o.o_custkey = c.c_custkey AND o.o_totalprice > %d)`,
				price(rng, 380_000, 440_000)),
			fmt.Sprintf(`SELECT c.c_custkey FROM customer c WHERE c.c_acctbal * %d > (SELECT AVG(o.o_totalprice) FROM orders o WHERE o.o_custkey = c.c_custkey)`,
				20+rng.Intn(20)),
			fig5(rng, ""),
		)
	}
	return out
}

// netflowThetaPool: the Hours x Flow band query (no equality binding)
// as EXISTS, NOT EXISTS and a count comparison, plus Figure 4's
// quantified ALL with a <> correlation on keys.
func netflowThetaPool(rng *rand.Rand) []string {
	const band = `f.StartTime >= h.StartInterval AND f.StartTime < h.EndInterval AND f.DestIP = '%s'`
	var out []string
	for i := 0; i < 4; i++ {
		dest := func() string { return wellKnownDests[rng.Intn(len(wellKnownDests))] }
		out = append(out,
			fmt.Sprintf(`SELECT h.HourDsc FROM Hours h WHERE EXISTS (SELECT * FROM Flow f WHERE `+band+` AND f.NumBytes > %d)`,
				dest(), 995_000+rng.Intn(4_000)),
			fmt.Sprintf(`SELECT h.HourDsc FROM Hours h WHERE NOT EXISTS (SELECT * FROM Flow f WHERE `+band+` AND f.NumBytes > %d)`,
				dest(), 995_000+rng.Intn(4_000)),
			fmt.Sprintf(`SELECT h.HourDsc FROM Hours h WHERE %d < (SELECT COUNT(*) FROM Flow f WHERE `+band+` AND f.Protocol = 'HTTP')`,
				80+rng.Intn(15), dest()),
			fmt.Sprintf(`SELECT a.a_key FROM A a WHERE a.a_val <> ALL (SELECT b.b_val FROM B b WHERE b.b_key <> a.a_key AND b.b_val >= %d)`,
				rng.Intn(netflowSize.valDomain/10)),
		)
	}
	return out
}

// serveShortPool covers Table 1's constructs over the small sample:
// EXISTS, NOT EXISTS, IN, NOT IN, SOME, ALL and a scalar comparison,
// each restricted to one nation so results stay short.
func serveShortPool(rng *rand.Rand) []string {
	templates := []string{
		`SELECT c.c_custkey FROM customer c WHERE c.c_nationkey = %d AND EXISTS (SELECT * FROM orders od WHERE od.o_custkey = c.c_custkey AND od.o_totalprice > %d)`,
		`SELECT c.c_custkey FROM customer c WHERE c.c_nationkey = %d AND NOT EXISTS (SELECT * FROM orders od WHERE od.o_custkey = c.c_custkey AND od.o_totalprice > %d)`,
		`SELECT c.c_custkey FROM customer c WHERE c.c_nationkey = %d AND c.c_custkey IN (SELECT od.o_custkey FROM orders od WHERE od.o_totalprice > %d)`,
		`SELECT c.c_custkey FROM customer c WHERE c.c_nationkey = %d AND c.c_custkey NOT IN (SELECT od.o_custkey FROM orders od WHERE od.o_totalprice > %d)`,
		`SELECT c.c_custkey FROM customer c WHERE c.c_nationkey = %d AND c.c_acctbal * 60 > SOME (SELECT od.o_totalprice FROM orders od WHERE od.o_custkey = c.c_custkey AND od.o_totalprice > %d)`,
		`SELECT c.c_custkey FROM customer c WHERE c.c_nationkey = %d AND c.c_acctbal * 60 > ALL (SELECT od.o_totalprice FROM orders od WHERE od.o_custkey = c.c_custkey AND od.o_totalprice > %d)`,
		`SELECT c.c_custkey FROM customer c WHERE c.c_nationkey = %d AND c.c_acctbal * 60 > (SELECT AVG(od.o_totalprice) FROM orders od WHERE od.o_custkey = c.c_custkey AND od.o_totalprice > %d)`,
	}
	var out []string
	for i := 0; i < 4; i++ {
		for _, t := range templates {
			out = append(out, fmt.Sprintf(t, rng.Intn(tpcrNations), price(rng, 200_000, 400_000)))
		}
	}
	return out
}

// ingestPool: Figure 5 shape restricted to one market segment.
func ingestPool(rng *rand.Rand) []string {
	var out []string
	for i := 0; i < 16; i++ {
		out = append(out, fig5(rng, fmt.Sprintf("c.c_mktsegment = '%s' AND ", tpcrSegments[rng.Intn(len(tpcrSegments))])))
	}
	return out
}

// freshTemplate rewrites a serve-short pool query into a structurally
// new template that returns the same rows: the subquery alias "od" gets
// a unique suffix, so the normalized text, and with it the plan-cache
// key, is new.
func freshTemplate(q string, n int) string {
	alias := fmt.Sprintf("od%d", n)
	q = strings.ReplaceAll(q, "orders od ", "orders "+alias+" ")
	return strings.ReplaceAll(q, "od.", alias+".")
}

// dbOptions returns the options the workload opens its DB with.
func (w *workload) dbOptions() []gmdj.Option {
	if w.planCacheBytes > 0 {
		return []gmdj.Option{gmdj.WithPlanCache(w.planCacheBytes)}
	}
	return nil
}
